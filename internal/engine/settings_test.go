package engine

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/memhier"
	"repro/internal/simrun"
)

// TestEstimatorsHonourSettings: the estimator engines time under the
// scenario's perfect-structure and ablation settings, so each estimate
// moves away from the base estimate in the same direction as the full
// run moves away from the base full run.
func TestEstimatorsHonourSettings(t *testing.T) {
	base := []simrun.Option{simrun.Insts(300_000), simrun.Warmup(50_000), simrun.Seed(42)}
	ipc := func(eng string, opts ...simrun.Option) float64 {
		t.Helper()
		res, err := mustScenario(t, "mcf", eng, append(append([]simrun.Option{}, base...), opts...)...).Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res.Cores[0].IPC
	}
	variants := []struct {
		name string
		opt  simrun.Option
	}{
		{"perfect", simrun.Perfect(memhier.Perfect{ISide: true, DSide: true, L2: true})},
		{"ablation", simrun.Ablation(core.Options{NoOverlapScan: true, NoROBFillHiding: true})},
	}
	engines := []string{"statistical", "simpoint"}
	fullBase := ipc(simrun.DefaultEngine)
	estBase := map[string]float64{}
	for _, eng := range engines {
		estBase[eng] = ipc(eng)
	}
	for _, v := range variants {
		fullDelta := ipc(simrun.DefaultEngine, v.opt) - fullBase
		if fullDelta == 0 {
			t.Fatalf("%s: full run unchanged by the setting", v.name)
		}
		for _, eng := range engines {
			if est := ipc(eng, v.opt); (est-estBase[eng])*fullDelta <= 0 {
				t.Errorf("%s/%s: estimate %.4f vs base %.4f, but full run moved by %+.4f",
					eng, v.name, est, estBase[eng], fullDelta)
			}
		}
	}
}
