package sampling

import (
	"testing"

	"repro/internal/config"
	"repro/internal/multicore"
	"repro/internal/trace"
	"repro/internal/workload"
)

func TestDiagnoseSameRange(t *testing.T) {
	p := workload.SPECByName("gcc")
	m := config.Default(1)
	for _, period := range []int{10_000, 20_000} {
		res, err := Run(Config{Unit: 10_000, Period: period, Model: multicore.Interval, Machine: m},
			workload.New(p, 0, 1, 42), 60_000)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("period=%d: IPC=%.3f units=%d", period, res.SampledIPC, res.Units)
	}
}

func TestDiagnoseDetailedSampled(t *testing.T) {
	p := workload.SPECByName("gcc")
	m := config.Default(1)
	full := multicore.Run(multicore.RunConfig{
		Machine: m, Model: multicore.Detailed,
	}, []trace.Stream{trace.NewLimit(workload.New(p, 0, 1, 42), 200_000)})
	res, err := Run(Config{Unit: 10_000, Period: 20_000,
		Model: multicore.Detailed, Machine: m},
		workload.New(p, 0, 1, 42), 200_000)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("detailed: full=%.3f sampled=%.3f", full.Cores[0].IPC, res.SampledIPC)
}

func TestDiagnoseContiguous(t *testing.T) {
	p := workload.SPECByName("gcc")
	m := config.Default(1)
	for _, period := range []int{10_000, 20_000, 50_000} {
		res, err := Run(Config{Unit: 10_000, Period: period, InitialWarmup: 200_000,
			Model: multicore.Interval, Machine: m},
			workload.New(p, 0, 1, 1042), 400_000)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("unit=10000 period=%d: IPC=%.3f units=%d", period, res.SampledIPC, res.Units)
	}
}
