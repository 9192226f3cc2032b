package simrun

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/memhier"
)

// fingerprintVersion invalidates every stored fingerprint when the
// simulated semantics of a scenario change (new knob, changed default,
// stream-format break): bump it and old cache entries simply stop
// matching, so a result computed under the old semantics is never served
// for a new submission. The bump policy is documented in
// docs/formats.md.
//
// v2: workload stream format v2 — Mix copies run in disjoint
// address-space slots, changing every Mix scenario's simulated outcome.
//
// v3: workload stream format v3 — the generator's sequential splitmix64
// walk became a counter-based RNG with chunked state resets and the
// math.Log geometric sampling became alias tables, changing every
// generated instruction stream and therefore every scenario's simulated
// outcome.
const fingerprintVersion = 3

// FingerprintVersion is the current scenario-fingerprint generation,
// exported so front ends can report which generation their caches are
// keyed under.
const FingerprintVersion = fingerprintVersion

// fingerprintBody is the canonical serialization the fingerprint hashes.
// It captures everything that determines the simulated outcome — the
// fully-resolved machine, the workload selection and sizing, the model
// name and the result shape (keepCores) — and nothing that does not: the
// display label and host-side settings (batch workers, timeouts) are
// deliberately absent.
type fingerprintBody struct {
	Version   int             `json:"v"`
	Model     string          `json:"model"`
	Bench     string          `json:"bench"`
	Mix       []string        `json:"mix,omitempty"`
	Threads   int             `json:"threads"`
	Insts     int             `json:"insts"`
	Warmup    int             `json:"warmup"`
	Seed      int64           `json:"seed"`
	Scale     float64         `json:"scale"`
	MaxCycles int64           `json:"max_cycles"`
	KeepCores bool            `json:"keep_cores"`
	Perfect   memhier.Perfect `json:"perfect"`
	Ablation  core.Options    `json:"ablation"`
	Machine   config.Machine  `json:"machine"`
}

// Fingerprint returns the scenario's content address: a deterministic
// SHA-256 (hex) of the fully-resolved scenario and machine configuration.
// Two scenarios with the same fingerprint simulate identically, however
// differently they were spelled (explicit Machine vs knob options,
// defaulted vs explicit seed). Scenarios built from explicit Streams are
// stateful and have no fingerprint.
func (s *Scenario) Fingerprint() (string, error) {
	return s.fingerprintAt(fingerprintVersion)
}

// fingerprintAt hashes the scenario under an explicit fingerprint
// version. Only the current version is ever served; the seam exists so
// tests can compute what a stale (v1) cache key would have been and
// prove it never collides with the current one.
func (s *Scenario) fingerprintAt(version int) (string, error) {
	if s.streams != nil {
		return "", fmt.Errorf("simrun: scenario %q uses explicit streams and cannot be fingerprinted", s.Name())
	}
	m, err := s.ResolvedMachine()
	if err != nil {
		return "", err
	}
	body := fingerprintBody{
		Version:   version,
		Model:     s.model.String(),
		Bench:     s.bench,
		Mix:       s.mix,
		Threads:   s.Threads(),
		Insts:     s.insts,
		Warmup:    s.warmup,
		Seed:      s.seed,
		Scale:     s.scale,
		MaxCycles: s.maxCycles,
		KeepCores: s.keepCores,
		Perfect:   s.perfect,
		Ablation:  s.ablation,
		Machine:   m,
	}
	// encoding/json marshals struct fields in declaration order, so the
	// serialization is canonical for a given fingerprintVersion.
	raw, err := json.Marshal(body)
	if err != nil {
		return "", fmt.Errorf("simrun: fingerprint: %w", err)
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:]), nil
}
