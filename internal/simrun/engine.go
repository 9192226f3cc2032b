package simrun

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/multicore"
)

// EngineDef is one registered way to produce an answer for a scenario.
// Engines span the fidelity spectrum: the built-in "full" engine runs
// the scenario's entire instruction budget under its core model, while
// estimator engines (package internal/engine registers "statistical"
// and "simpoint") trade fidelity for orders-of-magnitude less work. All
// engines answer the *same* scenario — the engine choice never enters
// the scenario fingerprint — so a serving layer can answer cheap first
// and upgrade the cached answer when a higher tier lands.
type EngineDef struct {
	// Name is the registered engine name.
	Name string
	// Tier classifies the fidelity of this engine's answer for s.
	Tier func(s *Scenario) Tier
	// Cost estimates the work of running s on this engine, in
	// simulated-instruction-equivalents. Only the ordering across
	// engines matters; adaptive front ends use it to budget.
	Cost func(s *Scenario) float64
	// Supports reports whether the engine can answer s: nil when it
	// can, an error explaining why not otherwise.
	Supports func(s *Scenario) error
	// Run produces the engine's answer. The dispatcher stamps
	// Result.Engine and Result.Tier afterwards; Run fills the
	// simulated outcome.
	Run func(ctx context.Context, s *Scenario) (Result, error)
}

// DefaultEngine is the engine scenarios run under when none is chosen:
// the full-budget simulation of the scenario's core model.
const DefaultEngine = "full"

var engineRegistry = struct {
	sync.RWMutex
	engines map[string]EngineDef
}{engines: map[string]EngineDef{}}

// RegisterEngine makes an engine available to scenarios under its Name.
// Registering a name twice, an empty name, or a definition with missing
// hooks panics: engine registration is program wiring, not user input.
// The built-in "full" engine is pre-registered; "statistical" and
// "simpoint" are registered by importing package internal/engine.
func RegisterEngine(e EngineDef) {
	if e.Name == "" || e.Tier == nil || e.Cost == nil || e.Supports == nil || e.Run == nil {
		panic("simrun: RegisterEngine needs a name and all four hooks")
	}
	engineRegistry.Lock()
	defer engineRegistry.Unlock()
	if _, dup := engineRegistry.engines[e.Name]; dup {
		panic(fmt.Sprintf("simrun: engine %q registered twice", e.Name))
	}
	engineRegistry.engines[e.Name] = e
}

// Engines lists the registered engine names, sorted.
func Engines() []string {
	engineRegistry.RLock()
	defer engineRegistry.RUnlock()
	names := make([]string, 0, len(engineRegistry.engines))
	for n := range engineRegistry.engines {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// LookupEngine resolves a registered engine name. Unknown names fail
// loudly with the registered set in the message — this is the shared
// rejection choke point for both wire front ends (simd submissions and
// cmd/sweep -f batch files), mirroring the SpecVersion rejection.
func LookupEngine(name string) (EngineDef, error) {
	engineRegistry.RLock()
	e, ok := engineRegistry.engines[name]
	engineRegistry.RUnlock()
	if !ok {
		return EngineDef{}, fmt.Errorf("simrun: unknown engine %q (registered: %s; tiers, cheapest first: %s)",
			name, strings.Join(Engines(), ", "), tierList())
	}
	return e, nil
}

func tierList() string {
	ts := Tiers()
	names := make([]string, len(ts))
	for i, t := range ts {
		names[i] = string(t)
	}
	return strings.Join(names, " < ")
}

// CheapestEngineFor returns the cheapest registered engine that supports
// s: lowest tier first, lowest cost estimate within a tier. The "full"
// engine supports every scenario, so there is always an answer.
func CheapestEngineFor(s *Scenario) EngineDef {
	engineRegistry.RLock()
	defer engineRegistry.RUnlock()
	var best EngineDef
	bestRank, bestCost := 0, 0.0
	for _, name := range sortedEngineNamesLocked() {
		e := engineRegistry.engines[name]
		if e.Supports(s) != nil {
			continue
		}
		rank, cost := e.Tier(s).Rank(), e.Cost(s)
		if best.Name == "" || rank < bestRank || (rank == bestRank && cost < bestCost) {
			best, bestRank, bestCost = e, rank, cost
		}
	}
	return best
}

// sortedEngineNamesLocked is Engines without re-locking, for iteration
// in a deterministic order under the registry lock.
func sortedEngineNamesLocked() []string {
	names := make([]string, 0, len(engineRegistry.engines))
	for n := range engineRegistry.engines {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// AnswerTier is the fidelity tier the scenario's selected engine answers
// at — what a cache lookup for this scenario must at least hold to count
// as a hit. An unregistered engine (possible only for scenarios built
// before a registry change) demands a definitive entry and fails loudly
// at Run.
func (s *Scenario) AnswerTier() Tier {
	eng, err := LookupEngine(s.EngineName())
	if err != nil {
		return ""
	}
	return eng.Tier(s)
}

// fullTier is the full engine's answer tier: it simulates the entire
// budget under the scenario's own core model, so the tier is the model's
// place in the lattice (detailed for the detailed model, interval for
// the analytical models).
func fullTier(s *Scenario) Tier {
	if s.model == multicore.Detailed {
		return TierDetailed
	}
	return TierInterval
}

// fullCost weighs the full engine's work: every thread simulates the
// warmup plus measured budget, and the detailed model pays roughly an
// order of magnitude more per instruction than the analytical ones
// (the paper's speed comparison).
func fullCost(s *Scenario) float64 {
	perThread := float64(s.warmup + s.insts)
	weight := 1.0
	if s.model == multicore.Detailed {
		weight = 10
	}
	return float64(s.Threads()) * perThread * weight
}

func init() {
	RegisterEngine(EngineDef{
		Name:     DefaultEngine,
		Tier:     fullTier,
		Cost:     fullCost,
		Supports: func(*Scenario) error { return nil },
		Run: func(ctx context.Context, s *Scenario) (Result, error) {
			return s.runFull(ctx)
		},
	})
}
