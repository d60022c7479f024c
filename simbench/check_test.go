package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// fakeWorkload returns repeats whose digests cover the given round times,
// one slice per repeat in turn.
func fakeWorkload(times [][]time.Duration, reference []time.Duration) *workload {
	digestOf := func(ts []time.Duration) [32]byte {
		d := newDigest()
		d.durations(ts)
		return d.sum()
	}
	n := 0
	w := &workload{name: "fake", totalRounds: 4}
	w.run = func(uint64, bool) (*repeat, error) {
		ts := times[n%len(times)]
		n++
		return &repeat{
			setup: time.Millisecond, measured: time.Second, rounds: len(ts),
			roundTimes: ts, digest: digestOf(ts),
		}, nil
	}
	if reference != nil {
		w.reference = func(uint64) ([32]byte, error) { return digestOf(reference), nil }
	}
	return w
}

var goodTimes = []time.Duration{10, 11, 12}

func TestIdenticalRepeatsPass(t *testing.T) {
	var tl tally
	ms, err := measureEndToEnd(fakeWorkload([][]time.Duration{goodTimes}, goodTimes), 1, 0, &tl)
	if err != nil {
		t.Fatal(err)
	}
	if tl.failed != 0 || tl.attempted != 4*4 {
		t.Fatalf("failed %d of %d: %v", tl.failed, tl.attempted, tl.notes)
	}
	for _, m := range ms {
		if m.name == "rounds_ok_frac" && m.value != 1 {
			t.Errorf("rounds_ok_frac = %v", m.value)
		}
	}
}

// TestCorruptedRepeatIsCaught flips one simulated round time in the second
// repeat: that repeat's rounds must be charged as failed and the result
// reported as incorrect.
func TestCorruptedRepeatIsCaught(t *testing.T) {
	bad := append([]time.Duration(nil), goodTimes...)
	bad[1]++
	var tl tally
	ms, err := measureEndToEnd(fakeWorkload([][]time.Duration{goodTimes, bad, goodTimes}, nil), 1, 0, &tl)
	if err != nil {
		t.Fatal(err)
	}
	if tl.failed != 4 || tl.attempted != 12 {
		t.Fatalf("failed %d of %d, want 4 of 12", tl.failed, tl.attempted)
	}
	var out bytes.Buffer
	if err := report(&out, &workload{name: "fake"}, provenance{}, 0, ms, &tl); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res struct {
		Correct   bool `json:"correct"`
		Attempted int  `json:"attempted"`
		Failed    int  `json:"failed"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != 4 || res.Attempted != 12 {
		t.Errorf("result %+v, want incorrect with 4 of 12 failed", res)
	}
}

// TestReferenceMismatchIsCaught: a sharded set that disagrees with its
// serial reference fails every repeat.
func TestReferenceMismatchIsCaught(t *testing.T) {
	ref := append([]time.Duration(nil), goodTimes...)
	ref[2]++
	var tl tally
	if _, err := measureEndToEnd(fakeWorkload([][]time.Duration{goodTimes}, ref), 1, 0, &tl); err == nil {
		t.Fatal("no error with every repeat failed")
	}
	if tl.failed != tl.attempted-4 || tl.failed == 0 {
		t.Errorf("failed %d of %d, want every measured round", tl.failed, tl.attempted)
	}
}

func TestStampCheckCatchesCorruption(t *testing.T) {
	const parts, partBytes = 4, 16
	buf := make([]byte, parts*partBytes)
	for p := 0; p < parts; p++ {
		binary.LittleEndian.PutUint64(buf[p*partBytes:], 7)
	}
	if !stampsOK(buf, partBytes, 7) {
		t.Fatal("intact buffer rejected")
	}
	if stampsOK(buf, partBytes, 8) {
		t.Error("stale round accepted")
	}
	buf[2*partBytes]++
	if stampsOK(buf, partBytes, 7) {
		t.Error("corrupted partition accepted")
	}
}

func TestTail(t *testing.T) {
	var ts []time.Duration
	for i := 1; i <= 100; i++ {
		ts = append(ts, time.Duration(i))
	}
	if q, v := tail(ts); q != 90 || v != 90 {
		t.Errorf("tail of 100 = p%v %v, want p90 90", q, v)
	}
	if q, v := tail(ts[:40]); q != 75 || v != 30 {
		t.Errorf("tail of 40 = p%v %v, want p75 30", q, v)
	}
	if q, _ := tail(ts[:5]); q != 100 {
		t.Errorf("tail of 5 = p%v, want the maximum", q)
	}
}
