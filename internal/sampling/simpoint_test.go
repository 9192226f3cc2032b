package sampling

import (
	"math"
	"testing"

	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/multicore"
	"repro/internal/trace"
	"repro/internal/workload"
)

// phasedStream builds a stream alternating between two benchmark
// behaviours in segments of segLen instructions, nSeg segments total.
func phasedStream(a, b string, segLen, nSeg int) []isa.Inst {
	ga := workload.New(workload.SPECByName(a), 0, 1, 42)
	gb := workload.New(workload.SPECByName(b), 0, 1, 43)
	out := make([]isa.Inst, 0, segLen*nSeg)
	for s := 0; s < nSeg; s++ {
		g := trace.Stream(ga)
		if s%2 == 1 {
			g = gb
		}
		out = append(out, trace.Record(g, segLen)...)
	}
	return out
}

func TestAnalyzeValidation(t *testing.T) {
	insts := trace.Record(workload.New(workload.SPECByName("gcc"), 0, 1, 1), 1000)
	if _, err := Analyze(insts, SimPointConfig{IntervalLen: 0, K: 2}); err == nil {
		t.Error("zero interval length accepted")
	}
	if _, err := Analyze(insts, SimPointConfig{IntervalLen: 100, K: 0}); err == nil {
		t.Error("zero k accepted")
	}
	if _, err := Analyze(insts[:50], SimPointConfig{IntervalLen: 100, K: 2}); err == nil {
		t.Error("sub-interval stream accepted")
	}
}

func TestAnalyzeDeterministic(t *testing.T) {
	insts := phasedStream("gcc", "swim", 2000, 10)
	a, err := Analyze(insts, SimPointConfig{IntervalLen: 1000, K: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Analyze(insts, SimPointConfig{IntervalLen: 1000, K: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Assignments {
		if a.Assignments[i] != b.Assignments[i] {
			t.Fatalf("assignment %d differs across identical runs", i)
		}
	}
}

func TestAnalyzeWeightsSumToOne(t *testing.T) {
	insts := phasedStream("gcc", "mcf", 2000, 8)
	sp, err := Analyze(insts, SimPointConfig{IntervalLen: 800, K: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, w := range sp.Weights {
		sum += w
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("weights sum to %v", sum)
	}
	if len(sp.Weights) != sp.K || len(sp.Representatives) != sp.K {
		t.Fatalf("inconsistent sizes: K=%d weights=%d reps=%d", sp.K, len(sp.Weights), len(sp.Representatives))
	}
	for _, r := range sp.Representatives {
		if r < 0 || r >= sp.Intervals() {
			t.Fatalf("representative %d out of range", r)
		}
	}
}

func TestAnalyzeKClampedToIntervals(t *testing.T) {
	insts := phasedStream("gcc", "swim", 1000, 2)
	sp, err := Analyze(insts, SimPointConfig{IntervalLen: 1000, K: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sp.K > 2 {
		t.Fatalf("K = %d for 2 intervals", sp.K)
	}
}

// TestPhasesSeparate checks the core SimPoint property: intervals of the
// same program phase cluster together. The stream alternates gcc-like and
// swim-like segments; with one interval per segment and K=2, the even and
// odd intervals must land in different clusters with high purity.
func TestPhasesSeparate(t *testing.T) {
	const segLen = 2000
	insts := phasedStream("gcc", "swim", segLen, 12)
	sp, err := Analyze(insts, SimPointConfig{IntervalLen: segLen, K: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if sp.K != 2 {
		t.Fatalf("K = %d", sp.K)
	}
	agree := 0
	for i, c := range sp.Assignments {
		if c == sp.Assignments[i%2] {
			agree++
		}
	}
	if purity := float64(agree) / float64(len(sp.Assignments)); purity < 0.9 {
		t.Fatalf("phase purity %.2f: assignments %v", purity, sp.Assignments)
	}
}

// TestEstimateIPCTracksFullRun compares the phase-sampled IPC estimate
// against timing the whole stream, for both core models. The first two
// segments are treated as initialization and excluded from both
// measurements (standard SimPoint practice), so cold-start misses do not
// dominate either side at this small scale.
func TestEstimateIPCTracksFullRun(t *testing.T) {
	const segLen = 4000
	const initSegs = 2
	all := phasedStream("gcc", "swim", segLen, 22)
	init, insts := all[:initSegs*segLen], all[initSegs*segLen:]
	m := config.Default(1)

	for _, model := range []multicore.Model{multicore.Interval, multicore.Detailed} {
		full := multicore.Run(multicore.RunConfig{
			Machine: m, Model: model,
			WarmupInsts: len(init),
			Warmup:      []trace.Stream{trace.NewSliceStream(init)},
		}, []trace.Stream{trace.NewSliceStream(insts)})
		fullIPC := full.Cores[0].IPC

		sp, err := Analyze(insts, SimPointConfig{IntervalLen: segLen, K: 2, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		est, err := EstimateIPC(all, spShift(sp, initSegs), multicore.RunConfig{Machine: m, Model: model})
		if err != nil {
			t.Fatal(err)
		}
		relErr := math.Abs(est-fullIPC) / fullIPC
		t.Logf("%v: full IPC %.3f, simpoint estimate %.3f (err %.1f%%, timed %d/%d intervals)",
			model, fullIPC, est, 100*relErr, sp.K, sp.Intervals())
		if relErr > 0.15 {
			t.Errorf("%v: simpoint estimate off by %.1f%%", model, 100*relErr)
		}
	}
}

// spShift re-indexes representatives by the discarded initialization
// segments so EstimateIPC can warm each one with the true full prefix.
func spShift(sp *SimPoints, segs int) *SimPoints {
	out := *sp
	out.Representatives = make([]int, len(sp.Representatives))
	for i, r := range sp.Representatives {
		out.Representatives[i] = r + segs
	}
	return &out
}

func TestEstimateIPCRejectsMultiCore(t *testing.T) {
	insts := phasedStream("gcc", "swim", 1000, 2)
	sp, err := Analyze(insts, SimPointConfig{IntervalLen: 1000, K: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := EstimateIPC(insts, sp, multicore.RunConfig{Machine: config.Default(2), Model: multicore.Interval}); err == nil {
		t.Error("multi-core machine accepted")
	}
}

func TestSignatureEmpty(t *testing.T) {
	var zero [sigDim]float64
	if got := signature(nil); got != zero {
		t.Fatal("empty signature not zero")
	}
}

func TestSignatureDiscriminates(t *testing.T) {
	ga := trace.Record(workload.New(workload.SPECByName("gcc"), 0, 1, 42), 4000)
	gs := trace.Record(workload.New(workload.SPECByName("swim"), 0, 1, 42), 4000)
	sa1, sa2 := signature(ga[:2000]), signature(ga[2000:])
	sb := signature(gs[:2000])
	within := dist2(&sa1, &sa2)
	between := dist2(&sa1, &sb)
	if between <= within {
		t.Fatalf("signature does not discriminate: within=%g between=%g", within, between)
	}
}

// TestAnalyzeStreamMatchesAnalyze: the streaming analysis must make
// identical clustering decisions to the recorded one — same signatures,
// same k-means, same selection — without materializing the stream.
func TestAnalyzeStreamMatchesAnalyze(t *testing.T) {
	insts := phasedStream("gcc", "swim", 2000, 12)
	cfg := SimPointConfig{IntervalLen: 1500, K: 3, Seed: 5}
	rec, err := Analyze(insts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	str, err := AnalyzeStream(trace.NewSliceStream(insts), len(insts), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rec.IntervalLen != str.IntervalLen || rec.K != str.K {
		t.Fatalf("shape differs: recorded (il=%d k=%d) streamed (il=%d k=%d)",
			rec.IntervalLen, rec.K, str.IntervalLen, str.K)
	}
	for i := range rec.Assignments {
		if rec.Assignments[i] != str.Assignments[i] {
			t.Fatalf("assignment %d differs: recorded %d streamed %d", i, rec.Assignments[i], str.Assignments[i])
		}
	}
	for i := range rec.Representatives {
		if rec.Representatives[i] != str.Representatives[i] {
			t.Fatalf("representative %d differs: recorded %d streamed %d", i, rec.Representatives[i], str.Representatives[i])
		}
	}
}

func TestAnalyzeStreamEndsEarly(t *testing.T) {
	insts := phasedStream("gcc", "swim", 1000, 2)
	if _, err := AnalyzeStream(trace.NewSliceStream(insts), len(insts)*2, SimPointConfig{IntervalLen: 1000, K: 2, Seed: 1}); err == nil {
		t.Fatal("short stream accepted")
	}
}

// TestEstimateIPCSkipTracksFullRun: timing only the representatives,
// each reached by skip-ahead with a bounded warmup window, must land
// near the full run of the same stream.
func TestEstimateIPCSkipTracksFullRun(t *testing.T) {
	const total = 120_000
	const warm = 20_000
	p := workload.SPECByName("gcc")
	m := config.Default(1)

	for _, model := range []multicore.Model{multicore.Interval, multicore.Detailed} {
		full := multicore.Run(multicore.RunConfig{
			Machine: m, Model: model,
		}, []trace.Stream{trace.NewLimit(workload.New(p, 0, 1, 42), total)})
		fullIPC := full.Cores[0].IPC

		sp, err := AnalyzeStream(workload.New(p, 0, 1, 42), total, SimPointConfig{
			IntervalLen: 10_000, K: 3, Seed: 9,
		})
		if err != nil {
			t.Fatal(err)
		}
		open := func() SkipStream { return workload.New(p, 0, 1, 42) }
		est, err := EstimateIPCSkip(open, sp, warm, multicore.RunConfig{Machine: m, Model: model})
		if err != nil {
			t.Fatal(err)
		}
		relErr := math.Abs(est-fullIPC) / fullIPC
		t.Logf("%v: full IPC %.3f, skip estimate %.3f (err %.1f%%)", model, fullIPC, est, 100*relErr)
		if relErr > 0.15 {
			t.Errorf("%v: skip estimate off by %.1f%%", model, 100*relErr)
		}
	}
}
