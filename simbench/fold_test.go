package main

import (
	"bytes"
	"math"
	"runtime/pprof"
	"testing"
	"time"
)

func stack(fns ...string) []frame {
	fs := make([]frame, len(fns))
	for i, fn := range fns {
		fs[i] = frame{fn: fn}
	}
	return fs
}

func TestClassifyFixedStacks(t *testing.T) {
	cases := []struct {
		name   string
		frames []frame
		want   string
	}{
		{"channel handoff under a proc switch", stack(
			"runtime.futex", "runtime.futexsleep", "runtime.notesleep", "runtime.stopm",
			"runtime.findRunnable", "runtime.schedule", "runtime.park_m", "runtime.mcall"), "rt.switch"},
		{"chanrecv called from sim", stack(
			"runtime.lock2", "runtime.chanrecv", "runtime.chanrecv1",
			"repro/internal/sim.(*Proc).park", "repro/internal/sim.(*Proc).Sleep"), "rt.switch"},
		{"allocation from core", stack(
			"runtime.memclrNoHeapPointers", "runtime.mallocgc", "runtime.makeslice",
			"repro/internal/core.(*Psend).Start"), "rt.gc"},
		{"background mark worker", stack(
			"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2",
			"runtime.systemstack", "runtime.gcBgMarkWorker", "runtime.goexit"), "rt.gc"},
		{"payload copy in ibv", stack(
			"runtime.memmove", "repro/internal/ibv.(*QP).PostSend",
			"repro/internal/xport/verbs.(*endpoint).PostSend"), "rt.memmove"},
		{"innermost layer wins", stack(
			"repro/internal/ibv.(*QP).PostSend", "repro/internal/xport/verbs.(*endpoint).PostSend",
			"repro/internal/core.(*Psend).postRun"), "ibv"},
		{"verbs subpackage is xport", stack(
			"repro/internal/xport/verbs.completionOf", "repro/internal/xport/verbs.(*Provider).Progress",
			"repro/internal/mpi.(*Rank).Progress"), "xport"},
		{"map access folds to its caller", stack(
			"internal/runtime/maps.(*Map).getWithKeySmall", "runtime.mapaccess2",
			"repro/internal/mpi.(*Rank).onCtrl"), "mpi"},
		{"ShardSet method is pdes", stack(
			"repro/internal/sim.(*ShardSet).drainInto", "repro/internal/sim.(*ShardSet).runShard"), "pdes"},
		{"shard.go helper is pdes", []frame{
			{fn: "repro/internal/sim.atomicMinTime", file: "/src/repro/internal/sim/shard.go"},
			{fn: "repro/internal/sim.(*Engine).runWindow", file: "/src/repro/internal/sim/sim.go"}}, "pdes"},
		{"calendar queue is sim", []frame{
			{fn: "repro/internal/sim.eventLess", file: "/src/repro/internal/sim/sim.go"},
			{fn: "repro/internal/sim.(*ShardSet).runShard", file: "/src/repro/internal/sim/shard.go"}}, "sim"},
		{"non-layer package folds to caller", stack(
			"repro/internal/trace.(*ArrivalPattern).Delays", "repro/internal/bench.RunHalo.func2"), "bench"},
		{"model code folds to core", stack(
			"repro/internal/ploggp.(*Model).OptimalTransport", "repro/internal/core.resolvePlan"), "core"},
		{"benchmark frames are bench", stack(
			"time.Now", "main.(*tracedEndpoint).PostSend", "repro/internal/core.(*Psend).postRun"), "bench"},
		{"fabric", stack("repro/internal/fabric.(*Flow).step", "repro/internal/sim.(*Engine).fireEvent"), "fabric"},
		{"ucx", stack("repro/internal/ucx.(*Transport).SendMR", "repro/internal/core.(*Psend).baselinePready"), "ucx"},
		{"cluster", stack("repro/internal/cluster.New", "repro/internal/mpi.NewWorld"), "cluster"},
		{"nothing recognised", stack("syscall.Syscall", "os.(*File).Write"), "other"},
		{"runtime without a class", stack("runtime.nanotime1", "runtime.nanotime"), "other"},
	}
	for _, c := range cases {
		if got := classify(c.frames); got != c.want {
			t.Errorf("%s: classify = %q, want %q", c.name, got, c.want)
		}
	}
}

func TestFoldSharesSumToOne(t *testing.T) {
	shares := foldShares([]stackSample{
		{frames: stack("runtime.memmove", "repro/internal/ibv.(*QP).PostSend"), weight: 3},
		{frames: stack("repro/internal/core.(*Psend).Pready"), weight: 1},
	})
	if len(shares) != len(cpuLayers) {
		t.Fatalf("got %d classes, want %d", len(shares), len(cpuLayers))
	}
	if shares["rt.memmove"] != 0.75 || shares["core"] != 0.25 {
		t.Errorf("shares = %v", shares)
	}
	var sum float64
	for _, v := range shares {
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("shares sum to %v", sum)
	}
}

//go:noinline
func spin(d time.Duration) (x uint64) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

// TestParseRealProfile decodes a profile written by runtime/pprof and
// finds this package's own busy loop in it.
func TestParseRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profiling unavailable: %v", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range samples {
		if s.weight <= 0 {
			t.Fatalf("sample weight %d", s.weight)
		}
		for _, f := range s.frames {
			if f.fn == "repro/simbench.spin" && f.file != "" {
				found = true
			}
		}
	}
	if !found {
		t.Errorf("no sample in repro/simbench.spin among %d samples", len(samples))
	}
}

func TestParseRejectsTruncated(t *testing.T) {
	if err := eachField([]byte{0x12, 0x05, 0x01}, func(int, int, uint64, []byte) error { return nil }); err == nil {
		t.Error("truncated length-delimited field accepted")
	}
}
