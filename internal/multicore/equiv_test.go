package multicore_test

import (
	"bytes"
	"testing"

	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/multicore"
	"repro/internal/report"
	"repro/internal/trace"
	"repro/internal/workload"
)

// oneByOne hands out at most one instruction per NextBatch call, forcing
// the cores and the warmup loop through their refill paths on every
// instruction.
type oneByOne struct{ s trace.Stream }

func (o oneByOne) NextBatch(buf []isa.Inst) int { return o.s.NextBatch(buf[:min(len(buf), 1)]) }

// hide wraps every stream in a one-instruction-per-call shell.
func hide(streams []trace.Stream) []trace.Stream {
	out := make([]trace.Stream, len(streams))
	for i, s := range streams {
		out[i] = oneByOne{s}
	}
	return out
}

// runJSON simulates and renders the machine-readable report, which covers
// cycles, per-core IPC and the full hierarchy statistics — any divergence
// between the chunked and one-at-a-time hand-off shows up here.
func runJSON(t *testing.T, cfg multicore.RunConfig, streams []trace.Stream) []byte {
	t.Helper()
	cfg.KeepCores = true
	res := multicore.Run(cfg, streams)
	raw, err := report.JSON(res)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestBatchedStreamEquivalence: for all three core models, simulating over
// streams that fill whole chunks and over streams that hand out one
// instruction per call must produce bit-identical reports — with and
// without separate warmup twins.
func TestBatchedStreamEquivalence(t *testing.T) {
	const insts, warm = 12_000, 30_000
	models := []multicore.Model{multicore.Interval, multicore.Detailed, multicore.OneIPC}

	t.Run("spec-single-core", func(t *testing.T) {
		p := workload.SPECByName("gcc")
		for _, m := range models {
			m := m
			t.Run(m.String(), func(t *testing.T) {
				mk := func() ([]trace.Stream, []trace.Stream) {
					return []trace.Stream{trace.NewLimit(workload.New(p, 0, 1, 42), insts)},
						[]trace.Stream{workload.New(p, 0, 1, 1042)}
				}
				cfg := multicore.RunConfig{Machine: config.Default(1), Model: m, WarmupInsts: warm}

				s1, w1 := mk()
				cfg1 := cfg
				cfg1.Warmup = w1
				batched := runJSON(t, cfg1, s1)

				s2, w2 := mk()
				cfg2 := cfg
				cfg2.Warmup = hide(w2)
				unbatched := runJSON(t, cfg2, hide(s2))

				if !bytes.Equal(batched, unbatched) {
					t.Fatalf("batched and unbatched reports differ:\n%s\n--\n%s", batched, unbatched)
				}
			})
		}
	})

	t.Run("spec-warmup-from-head", func(t *testing.T) {
		// Warmup consuming the head of the main stream is the case where
		// over-reading by one batch would corrupt the timed portion.
		p := workload.SPECByName("mcf")
		cfg := multicore.RunConfig{Machine: config.Default(1), Model: multicore.Interval, WarmupInsts: warm}
		batched := runJSON(t, cfg,
			[]trace.Stream{trace.NewLimit(workload.New(p, 0, 1, 42), insts+warm)})
		unbatched := runJSON(t, cfg,
			hide([]trace.Stream{trace.NewLimit(workload.New(p, 0, 1, 42), insts+warm)}))
		if !bytes.Equal(batched, unbatched) {
			t.Fatalf("batched and unbatched reports differ:\n%s\n--\n%s", batched, unbatched)
		}
	})

	t.Run("parsec-multicore", func(t *testing.T) {
		p := workload.PARSECByName("canneal")
		q := *p
		q.TotalWork = 40_000
		for _, m := range models {
			m := m
			t.Run(m.String(), func(t *testing.T) {
				mk := func() []trace.Stream {
					streams := make([]trace.Stream, 4)
					for i := range streams {
						streams[i] = workload.New(&q, i, 4, 42)
					}
					return streams
				}
				cfg := multicore.RunConfig{
					Machine: config.Default(4), Model: m, MaxCycles: 50_000_000,
				}
				batched := runJSON(t, cfg, mk())
				unbatched := runJSON(t, cfg, hide(mk()))
				if !bytes.Equal(batched, unbatched) {
					t.Fatalf("batched and unbatched reports differ:\n%s\n--\n%s", batched, unbatched)
				}
			})
		}
	})

	t.Run("replay-matches-generated", func(t *testing.T) {
		// A recorded trace replayed through SliceStream must time exactly
		// like the generator it was recorded from.
		p := workload.SPECByName("swim")
		cfg := multicore.RunConfig{Machine: config.Default(1), Model: multicore.Interval, WarmupInsts: warm}

		cfgGen := cfg
		cfgGen.Warmup = []trace.Stream{workload.New(p, 0, 1, 1042)}
		generated := runJSON(t, cfgGen,
			[]trace.Stream{trace.NewLimit(workload.New(p, 0, 1, 42), insts)})

		tr := trace.Record(workload.New(p, 0, 1, 42), insts)
		wtr := trace.Record(workload.New(p, 0, 1, 1042), warm)
		cfgRep := cfg
		cfgRep.Warmup = []trace.Stream{trace.NewSliceStream(wtr)}
		replayed := runJSON(t, cfgRep, []trace.Stream{trace.NewSliceStream(tr)})

		if !bytes.Equal(generated, replayed) {
			t.Fatalf("generated and replayed reports differ:\n%s\n--\n%s", generated, replayed)
		}
	})
}
