// Command simbench is the repository's benchmark. It runs one workload of
// the partitioned-communication simulator for a host-time budget, checks
// the simulated outputs, and prints every metric by name and unit. Run it
// from the root of a checkout (it hashes the internal/ tree there):
//
//	bash simbench/run.sh --workload p2p-msgrate --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics, from untraced repeats.
// With --trace 1 it reports the per-layer metrics instead: it makes
// untraced repeats for half the budget and traced repeats, under a CPU
// profile, for the other half. Traced repeats route every rank's transport
// through a counting xport decorator and count Start and Pready calls
// through a core.Observer; neither changes simulated time, and the run
// checks that the traced outputs equal the untraced ones.
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 1980, "failed": 0, "metrics": {"setup_s": {"value": 0.81, "unit": "s"}, ...}}
//
// attempted and failed count simulated rounds. A round fails when its
// repeat returns an error, when an output check fails, or when its virtual
// outputs differ from the set's first repeat (or, for sweep3d-sharded,
// from a serial-engine run).
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"repro/internal/sim"
)

// defaultSeed is the seed used when --seed is absent. Any other seed must
// pass the same checks; use one to re-check a claim made on this one.
const defaultSeed = 1

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "simbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fl := flag.NewFlagSet("simbench", flag.ContinueOnError)
	name := fl.String("workload", "", "workload: p2p-msgrate, halo-fattree or sweep3d-sharded")
	seed := fl.Uint64("seed", defaultSeed, "seed of the arrival patterns")
	seconds := fl.Int("seconds", 10, "host seconds to spend on repeats")
	traced := fl.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	if err := fl.Parse(args); err != nil {
		return err
	}
	if fl.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %v", fl.Args())
	}
	w, err := workloadNamed(*name)
	if err != nil {
		return err
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		return fmt.Errorf("--seconds must be positive and --trace 0 or 1")
	}
	prov, err := newProvenance(*seed, "internal")
	if err != nil {
		return err
	}
	budget := time.Duration(*seconds) * time.Second

	var t tally
	var ms []metric
	if *traced == 1 {
		ms, err = measureLayers(w, *seed, budget, &t)
	} else {
		ms, err = measureEndToEnd(w, *seed, budget, &t)
	}
	if err != nil {
		return err
	}
	return report(stdout, w, prov, *traced, ms, &t)
}

// metric is one reported value.
type metric struct {
	name  string
	value float64
	unit  string
	note  string
}

// tally counts attempted and failed rounds and says why rounds failed.
type tally struct {
	attempted, failed int
	notes             []string
}

func (t *tally) fail(rounds int, format string, args ...any) {
	t.failed += rounds
	t.notes = append(t.notes, fmt.Sprintf(format, args...))
}

// runRepeats makes repeats until budget has passed and at least minReps
// have been attempted. It returns the repeats that ran to completion; a
// repeat that returned an error is charged as failed in full, and one
// whose in-run checks failed is charged for its bad rounds.
func runRepeats(w *workload, seed uint64, traced bool, budget time.Duration, minReps int, t *tally) []*repeat {
	var reps []*repeat
	start := time.Now()
	for n := 0; n < minReps || time.Since(start) < budget; n++ {
		runtime.GC()
		ev0, s0 := sim.TotalEvents(), sim.TotalSchedStats()
		t0 := time.Now()
		rep, err := w.run(seed, traced)
		wall := time.Since(t0)
		pvs := takeTraced()
		t.attempted += w.totalRounds
		if err != nil {
			t.fail(w.totalRounds, "repeat %d: %v", n, err)
			continue
		}
		rep.wall = wall
		rep.events = sim.TotalEvents() - ev0
		s1 := sim.TotalSchedStats()
		rep.sched = sim.SchedStats{
			Ring:      s1.Ring - s0.Ring,
			Bucket:    s1.Bucket - s0.Bucket,
			Far:       s1.Far - s0.Far,
			MaxBucket: s1.MaxBucket,
		}
		if traced {
			if rep.layers.traced, err = collectTraced(pvs); err != nil {
				t.fail(w.totalRounds, "repeat %d: %v", n, err)
				continue
			}
		}
		if rep.badRounds > 0 {
			t.fail(rep.badRounds, "repeat %d: %d rounds failed the output check", n, rep.badRounds)
		}
		reps = append(reps, rep)
	}
	return reps
}

// checkSame charges every repeat whose digest differs from want, and
// returns the repeats that match.
func checkSame(w *workload, reps []*repeat, want [32]byte, what string, t *tally) []*repeat {
	var ok []*repeat
	for i, r := range reps {
		if r.digest != want {
			t.fail(w.totalRounds-r.badRounds, "%s repeat %d: virtual-time outputs differ", what, i)
			continue
		}
		ok = append(ok, r)
	}
	return ok
}

// checkReference compares the set's outputs with a serial-engine run.
func checkReference(w *workload, seed uint64, reps []*repeat, t *tally) []*repeat {
	if w.reference == nil || len(reps) == 0 {
		return reps
	}
	t.attempted += w.totalRounds
	runtime.GC()
	want, err := w.reference(seed)
	if err != nil {
		t.fail(w.totalRounds, "%v", err)
		return nil
	}
	return checkSame(w, reps, want, "serial-reference check:", t)
}

var errNoRepeats = errors.New("no repeat completed")

func measureEndToEnd(w *workload, seed uint64, budget time.Duration, t *tally) ([]metric, error) {
	reps := runRepeats(w, seed, false, budget, 3, t)
	if len(reps) > 0 {
		reps = checkSame(w, reps, reps[0].digest, "", t)
	}
	reps = checkReference(w, seed, reps, t)
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	if len(reps) == 0 {
		return nil, errNoRepeats
	}
	var rps, setup, allocs, allocBytes []float64
	for _, r := range reps {
		rps = append(rps, r.roundsPerSec())
		setup = append(setup, r.setup.Seconds())
		allocs = append(allocs, float64(r.allocs)/float64(r.rounds))
		allocBytes = append(allocBytes, float64(r.allocBytes)/float64(r.rounds))
	}
	times := append([]time.Duration(nil), reps[0].roundTimes...)
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	p50, _ := percentile(times, 50)
	q, tv := tail(times)
	return []metric{
		{name: "rounds_per_s", value: median(rps), unit: "1/s", note: fmt.Sprintf("median of %d repeats", len(reps))},
		{name: "setup_s", value: median(setup), unit: "s", note: fmt.Sprintf("median of %d repeats", len(reps))},
		{name: "allocs_per_round", value: median(allocs), unit: "count"},
		{name: "alloc_bytes_per_round", value: median(allocBytes), unit: "B"},
		{name: "peak_rss_mb", value: rss, unit: "MiB"},
		{name: "sim_round_us_p50", value: us(p50), unit: "us", note: fmt.Sprintf("%d samples", len(times))},
		{name: "sim_round_us_tail", value: us(tv), unit: "us", note: fmt.Sprintf("p%g of %d samples", q, len(times))},
		{name: "rounds_ok_frac", value: okFrac(t), unit: "frac", note: "1 - failed_frac"},
	}, nil
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func okFrac(t *tally) float64 {
	if t.attempted == 0 {
		return 0
	}
	return 1 - float64(t.failed)/float64(t.attempted)
}

// ratio returns a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func measureLayers(w *workload, seed uint64, budget time.Duration, t *tally) ([]metric, error) {
	plain := runRepeats(w, seed, false, budget/2, 2, t)
	if len(plain) > 0 {
		plain = checkSame(w, plain, plain[0].digest, "untraced", t)
	}
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	traced := runRepeats(w, seed, true, budget/2, 1, t)
	pprof.StopCPUProfile()
	if len(plain) == 0 || len(traced) == 0 {
		return nil, errNoRepeats
	}
	// The decorators and the observer must not move simulated time.
	traced = checkSame(w, traced, plain[0].digest, "traced", t)
	plain = checkReference(w, seed, plain, t)
	if len(plain) == 0 || len(traced) == 0 {
		return nil, errNoRepeats
	}
	samples, err := parseCPUProfile(prof.Bytes())
	if err != nil {
		return nil, err
	}
	return layerMetrics(w, plain, traced, foldShares(samples)), nil
}

// layerMetrics derives the per-layer metrics. Per-round counts divide a
// whole repeat's count, set-up and warm-up included, by every round it
// ran. Simulator counters and speeds come from the untraced repeats;
// transport, core and rank counters from the first traced repeat, and
// host-time spans from all traced repeats.
func layerMetrics(w *workload, plain, traced []*repeat, cpu map[string]float64) []metric {
	rounds := float64(w.totalRounds)
	perRound := func(v int64) float64 { return float64(v) / rounds }

	var evRound, evSec, ringF, bucketF, farF, rpsPlain []float64
	maxBucket := 0
	for _, r := range plain {
		evRound = append(evRound, float64(r.events)/rounds)
		evSec = append(evSec, float64(r.events)/r.wall.Seconds())
		placed := float64(r.sched.Ring + r.sched.Bucket + r.sched.Far)
		ringF = append(ringF, ratio(float64(r.sched.Ring), placed))
		bucketF = append(bucketF, ratio(float64(r.sched.Bucket), placed))
		farF = append(farF, ratio(float64(r.sched.Far), placed))
		maxBucket = max(maxBucket, r.sched.MaxBucket)
		rpsPlain = append(rpsPlain, r.roundsPerSec())
	}
	var rpsTraced []float64
	var sp p2pSpans
	var x xportCounts
	for _, r := range traced {
		rpsTraced = append(rpsTraced, r.roundsPerSec())
		sp.add(r.layers.spans)
		x.add(r.layers.traced.x)
	}
	first := traced[0].layers
	tt := first.traced

	var windows, hops, skipFrac, stalls, cross, imbalance float64
	if st := plain[0].layers.shard; st != nil {
		windows = float64(st.Windows) / rounds
		hops = float64(st.TminHops) / rounds
		skipFrac = ratio(float64(st.WindowsSkipped), float64(st.TminHops))
		stalls = float64(st.Stalls) / rounds
		cross = float64(st.CrossPosts) / rounds
		var sum, most uint64
		for _, e := range st.Events {
			sum += e
			most = max(most, e)
		}
		imbalance = ratio(float64(most), float64(sum)/float64(len(st.Events)))
	}

	var switches, adaptRanks, regretNs, adaptRounds float64
	for _, a := range first.adaptive {
		if a == nil {
			continue
		}
		adaptRanks++
		switches += float64(len(a.Switches) - 1)
		regretNs += float64(a.RegretNs)
		adaptRounds += float64(a.Rounds)
	}

	ms := []metric{
		{name: "sim.events_per_round", value: median(evRound), unit: "count"},
		{name: "sim.events_per_s", value: median(evSec), unit: "1/s"},
		{name: "sim.ring_frac", value: median(ringF), unit: "frac"},
		{name: "sim.bucket_frac", value: median(bucketF), unit: "frac"},
		{name: "sim.far_frac", value: median(farF), unit: "frac"},
		{name: "sim.max_bucket", value: float64(maxBucket), unit: "count"},
		{name: "pdes.windows_per_round", value: windows, unit: "count"},
		{name: "pdes.hops_per_round", value: hops, unit: "count"},
		{name: "pdes.hop_skip_frac", value: skipFrac, unit: "frac"},
		{name: "pdes.stalls_per_round", value: stalls, unit: "count"},
		{name: "pdes.cross_posts_per_round", value: cross, unit: "count"},
		{name: "pdes.shard_imbalance", value: imbalance, unit: "ratio"},
		{name: "core.pready_per_round", value: perRound(first.preadies), unit: "count"},
		{name: "core.wr_per_pready", value: ratio(float64(tt.x.postSend), float64(first.preadies)), unit: "ratio"},
		{name: "core.pready_host_ns", value: ratio(float64(sp.readyNs), float64(sp.preadies)), unit: "ns"},
		{name: "core.start_host_ns", value: ratio(float64(sp.startNs), float64(sp.starts)), unit: "ns"},
		{name: "core.wait_sim_us", value: ratio(us(first.spans.waitSim), float64(first.spans.waits)), unit: "us"},
		{name: "adaptive.switches_per_rank", value: ratio(switches, adaptRanks), unit: "count"},
		{name: "adaptive.regret_us", value: ratio(regretNs, adaptRounds) / 1e3, unit: "us"},
		{name: "xport.post_send_per_round", value: perRound(tt.x.postSend), unit: "count"},
		{name: "xport.post_send_host_ns", value: ratio(float64(x.postSendNs), float64(x.postSend)), unit: "ns"},
		{name: "xport.bytes_per_wr", value: ratio(float64(tt.x.sendBytes), float64(tt.x.postSend)), unit: "B"},
		{name: "xport.inline_frac", value: ratio(float64(tt.x.inline), float64(tt.x.postSend)), unit: "frac"},
		{name: "xport.post_recv_per_round", value: perRound(tt.x.postRecv), unit: "count"},
		{name: "xport.completions_per_round", value: perRound(tt.x.completions), unit: "count"},
		{name: "xport.completion_host_ns", value: ratio(float64(x.completionNs), float64(x.completions)), unit: "ns"},
		{name: "xport.outstanding_max", value: float64(tt.x.outstandingMax), unit: "count"},
		{name: "xport.failed_completions", value: float64(tt.x.failedComps), unit: "count"},
		{name: "xport.post_errors", value: float64(tt.x.postErrors), unit: "count"},
		{name: "ucx.bcopy_per_round", value: perRound(tt.bcopy), unit: "count"},
		{name: "ucx.zcopy_per_round", value: perRound(tt.zcopy), unit: "count"},
		{name: "ucx.rndv_per_round", value: perRound(tt.rndv), unit: "count"},
		{name: "ucx.send_host_ns", value: ratio(float64(x.msgSendNs), float64(x.msgSends)), unit: "ns"},
		{name: "mpi.wc_per_round", value: perRound(tt.wc), unit: "count"},
		{name: "fabric.msgs_per_round", value: perRound(tt.fabricMsgs), unit: "count"},
		{name: "fabric.bytes_per_round", value: perRound(tt.fabricByte), unit: "B"},
	}
	for _, l := range cpuLayers {
		ms = append(ms, metric{name: "cpu." + l, value: cpu[l], unit: "frac"})
	}
	ms = append(ms, metric{
		name:  "trace.overhead_frac",
		value: 1 - median(rpsTraced)/median(rpsPlain),
		unit:  "frac",
		note:  fmt.Sprintf("traced %.4g vs untraced %.4g rounds/s", median(rpsTraced), median(rpsPlain)),
	})
	return ms
}

// report prints the human-readable table, the provenance line and, last,
// the result object.
func report(out io.Writer, w *workload, prov provenance, traced int, ms []metric, t *tally) error {
	fmt.Fprintf(out, "simbench %s seed=%d trace=%d\n", w.name, prov.Seed, traced)
	for _, m := range ms {
		fmt.Fprintf(out, "  %-30s %16.6g %-6s %s\n", m.name, m.value, m.unit, m.note)
	}
	failedFrac := 0.0
	if t.attempted > 0 {
		failedFrac = float64(t.failed) / float64(t.attempted)
	}
	fmt.Fprintf(out, "  %-30s %16.6g %-6s %d of %d rounds\n", "failed_frac", failedFrac, "frac", t.failed, t.attempted)
	for _, n := range t.notes {
		fmt.Fprintf(out, "  FAILED: %s\n", n)
	}
	p, err := json.Marshal(map[string]provenance{"provenance": prov})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s\n", p)

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{
		Correct:   t.failed == 0 && t.attempted > 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics:   make(map[string]value, len(ms)),
	}
	for _, m := range ms {
		res.Metrics[m.name] = value{m.value, m.unit}
	}
	b, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("encoding result: %w", err)
	}
	fmt.Fprintf(out, "%s\n", b)
	return nil
}
