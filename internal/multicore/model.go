package multicore

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/branch"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/memhier"
	"repro/internal/oneipc"
	"repro/internal/ooo"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Model selects the core timing model.
type Model int

const (
	// Detailed is the cycle-level out-of-order baseline.
	Detailed Model = iota
	// Interval is the paper's analytical model.
	Interval
	// OneIPC is the naive one-instruction-per-cycle ablation model.
	OneIPC
)

// models is the one core-model table: each model's wire name and how it
// builds a core from the shared inputs. Everything that names or
// constructs a core model — the driver, the sampling harnesses, the
// scenario layer's validation — reads it.
var models = [...]struct {
	name  string
	build func(id int, cfg config.Core, ablation core.Options, bp *branch.Unit, mem *memhier.Hierarchy, stream trace.Stream, sync sim.Syncer) sim.Core
}{
	Detailed: {"detailed", func(id int, cfg config.Core, _ core.Options, bp *branch.Unit, mem *memhier.Hierarchy, stream trace.Stream, sync sim.Syncer) sim.Core {
		return ooo.New(id, cfg, bp, mem, stream, sync)
	}},
	Interval: {"interval", func(id int, cfg config.Core, ablation core.Options, bp *branch.Unit, mem *memhier.Hierarchy, stream trace.Stream, sync sim.Syncer) sim.Core {
		return core.NewWithOptions(id, cfg, ablation, bp, mem, stream, sync)
	}},
	OneIPC: {"oneipc", func(id int, _ config.Core, _ core.Options, _ *branch.Unit, mem *memhier.Hierarchy, stream trace.Stream, sync sim.Syncer) sim.Core {
		return oneipc.New(id, mem, stream, sync)
	}},
}

func (m Model) valid() bool { return m >= 0 && int(m) < len(models) }

// String is the model's wire name: "interval", "detailed" or "oneipc".
func (m Model) String() string {
	if !m.valid() {
		return fmt.Sprintf("model(%d)", int(m))
	}
	return models[m].name
}

// Models lists the model wire names, sorted.
func Models() []string {
	names := make([]string, len(models))
	for i, e := range models {
		names[i] = e.name
	}
	sort.Strings(names)
	return names
}

// ParseModel resolves a wire name to its Model; the error lists the
// valid names.
func ParseModel(name string) (Model, error) {
	for i, e := range models {
		if e.name == name {
			return Model(i), nil
		}
	}
	return 0, fmt.Errorf("multicore: unknown model %q (want %s)", name, strings.Join(Models(), ", "))
}

// NewCore builds core id under model m over the shared hierarchy mem.
// ablation selects interval-model ablation variants (the zero value is
// the full model); the other models ignore it, and the one-IPC model
// also ignores cfg and bp. An unknown model panics: names are validated
// by ParseModel at the input boundary.
func NewCore(m Model, id int, cfg config.Core, ablation core.Options, bp *branch.Unit, mem *memhier.Hierarchy, stream trace.Stream, sync sim.Syncer) sim.Core {
	if !m.valid() {
		panic(fmt.Sprintf("multicore: unknown model %d", int(m)))
	}
	return models[m].build(id, cfg, ablation, bp, mem, stream, sync)
}
