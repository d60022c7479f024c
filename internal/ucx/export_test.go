package ucx

// Slots exposes the bounce-slot count so tests can size staging pressure.
const Slots = numSlots
