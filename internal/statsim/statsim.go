// Package statsim implements statistical simulation, the related-work
// baseline the paper positions interval simulation against (Nussbaum &
// Smith; Eeckhout et al.; Oskin et al.): profile a benchmark's dynamic
// execution into a compact statistical profile, then generate a short
// synthetic clone that exhibits the same execution characteristics. The
// clone's instruction count can be orders of magnitude smaller than the
// original workload, which is where statistical simulation gets its
// speedup — orthogonal to interval simulation, which instead raises the
// timing model's level of abstraction (the two compose; see the bench
// harness).
package statsim

import (
	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/trace"
)

// MaxDepDist is the largest tracked register dependence distance in
// dynamic instructions; longer (or absent) dependences fall in the last
// bucket and are treated as already satisfied.
const MaxDepDist = 64

// maxStaticBranches caps the synthetic static branch footprint.
const maxStaticBranches = 256

// maxTrackedLines caps the working-set estimator's line table.
const maxTrackedLines = 1 << 20

// Stride buckets classify the line-distance between consecutive data
// accesses.
const (
	strideSame = iota // same line
	strideNext        // +1 line
	stridePrev        // -1 line
	strideNear        // |delta| in [2,8] lines
	strideFar         // anything else: random within the working set
	numStrides
)

// StaticBranch is the profiled behaviour of one static branch.
type StaticBranch struct {
	// Count is the dynamic execution count.
	Count uint64
	// Taken counts taken outcomes.
	Taken uint64
	// Repeats counts outcomes equal to the branch's previous outcome.
	Repeats uint64
}

// TakenRate returns the fraction of executions taken.
func (b StaticBranch) TakenRate() float64 {
	if b.Count == 0 {
		return 0
	}
	return float64(b.Taken) / float64(b.Count)
}

// RepeatRate returns the fraction of executions repeating the previous
// outcome.
func (b StaticBranch) RepeatRate() float64 {
	if b.Count == 0 {
		return 0
	}
	return float64(b.Repeats) / float64(b.Count)
}

// Profile is the statistical profile of one thread's dynamic execution.
type Profile struct {
	// Total is the number of profiled instructions.
	Total uint64
	// ClassCount is the instruction-class mix.
	ClassCount [isa.NumClasses]uint64

	// DepDist is the register dependence-distance histogram: DepDist[d]
	// counts source operands whose producer retired d instructions
	// earlier (d in [1,MaxDepDist)); the last bucket aggregates longer
	// and absent dependences.
	DepDist [MaxDepDist + 1]uint64
	// SrcOps counts profiled source operands.
	SrcOps uint64

	// Branch behaviour: taken rate, outcome-repeat rate per static
	// branch (a predictability proxy), and the static branch footprint.
	BranchTotal    uint64
	BranchTaken    uint64
	BranchRepeats  uint64
	StaticBranches int
	// Branches holds per-static-branch behaviour for up to
	// maxStaticBranches distinct branch PCs, in first-seen order. The
	// clone replays each static branch with its own bias and repeat
	// rate, which preserves the biased/alternating structure real
	// predictors exploit.
	Branches []StaticBranch

	// Memory behaviour: stride mix between consecutive data-access
	// lines and the data working-set size in lines.
	StrideCount [numStrides]uint64
	DataLines   int
	// CodeLines is the instruction working set in cache lines.
	CodeLines int

	// Locality: hit rates measured against the baseline cache geometry
	// (Table 1), the statistical-simulation practice of carrying cache
	// behaviour in the profile (HLS; Nussbaum & Smith). DataAccesses
	// partitions into L1D hits, L2 hits and misses below L2; InstCount
	// partitions I-side accesses the same way per instruction.
	DataAccesses uint64
	L1DHits      uint64
	L2DHits      uint64
	L1IMissesPer uint64 // L1I misses (per-instruction I-side behaviour)

	// Miss clustering: below-L2 misses arriving within missClusterGap
	// data accesses of the previous one belong to the same cluster.
	// Cluster size is what exposes memory-level parallelism, so the
	// clone must reproduce it, not just the aggregate miss rate (the
	// MLP-aware profiling insight of Genbrugge & Eeckhout's statistical
	// simulation work).
	ColdMisses   uint64
	ColdClusters uint64

	// Pointer chasing: Loads counts profiled loads; LoadLoadDeps counts
	// loads whose address source register was produced by another load
	// within MaxDepDist instructions. Dependent load chains serialize
	// their miss penalties, so the clone must reproduce this fraction
	// (mcf-like workloads have almost no MLP because of it).
	Loads        uint64
	LoadLoadDeps uint64
}

// LoadLoadRate returns the fraction of loads whose address depends on a
// recent load.
func (p *Profile) LoadLoadRate() float64 {
	if p.Loads == 0 {
		return 0
	}
	return float64(p.LoadLoadDeps) / float64(p.Loads)
}

// missClusterGap is the maximum spacing (in data accesses) between two
// below-L2 misses of the same cluster.
const missClusterGap = 32

// MeanBurst returns the mean below-L2 miss-cluster size, at least 1.
func (p *Profile) MeanBurst() float64 {
	if p.ColdClusters == 0 {
		return 1
	}
	b := float64(p.ColdMisses) / float64(p.ColdClusters)
	if b < 1 {
		return 1
	}
	return b
}

// L1DHitRate returns the fraction of data accesses hitting the L1D.
func (p *Profile) L1DHitRate() float64 {
	if p.DataAccesses == 0 {
		return 1
	}
	return float64(p.L1DHits) / float64(p.DataAccesses)
}

// L2DHitRate returns the fraction of data accesses missing the L1D but
// hitting the L2.
func (p *Profile) L2DHitRate() float64 {
	if p.DataAccesses == 0 {
		return 0
	}
	return float64(p.L2DHits) / float64(p.DataAccesses)
}

// IMissRate returns L1I misses per instruction.
func (p *Profile) IMissRate() float64 {
	if p.Total == 0 {
		return 0
	}
	return float64(p.L1IMissesPer) / float64(p.Total)
}

// Collect profiles up to max instructions from src (0 = the entire
// stream).
func Collect(src trace.Stream, max int) *Profile {
	return CollectWarm(src, 0, max)
}

// CollectWarm is Collect with functional warmup: the first warm
// instructions update the internal cache, TLB and branch-history state
// without contributing to the profile, so the profiled locality reflects
// steady state rather than cold-start misses. Clones are short by design;
// generating them from cold-start-biased rates would overstate their miss
// traffic.
func CollectWarm(src trace.Stream, warm, max int) *Profile {
	p := &Profile{}
	lastWrite := make(map[uint8]uint64, isa.NumRegs)
	lastWriteIsLoad := make(map[uint8]bool, isa.NumRegs)
	lastOutcome := make(map[uint64]bool)
	branchIdx := make(map[uint64]int)
	dataLines := make(map[uint64]struct{})
	codeLines := make(map[uint64]struct{})
	var lastLine int64 = -1
	var lastColdAt int64 = -1

	// Locality measurement against the Table 1 geometry.
	mem := config.Default(1).Mem
	l1d := cache.New(mem.L1D)
	l2 := cache.New(mem.L2)
	l1i := cache.New(mem.L1I)

	if max > 0 {
		src = trace.NewLimit(src, warm+max)
	}
	rd := trace.NewBuffered(src, 4096)
	var seq uint64
	for {
		in, ok := rd.Next()
		if !ok {
			break
		}
		counting := seq >= uint64(warm)
		if counting {
			p.Total++
			p.ClassCount[in.Class]++
		}

		isLoadChase := false
		for _, s := range [2]uint8{in.Src1, in.Src2} {
			if s == isa.RegNone {
				continue
			}
			producerRecent := false
			if w, ok := lastWrite[s]; ok && seq-w <= MaxDepDist {
				producerRecent = true
				if counting {
					p.DepDist[seq-w]++
				}
			} else if counting {
				p.DepDist[MaxDepDist]++
			}
			if counting {
				p.SrcOps++
			}
			if in.Class == isa.Load && producerRecent && lastWriteIsLoad[s] {
				isLoadChase = true
			}
		}
		if counting && in.Class == isa.Load {
			p.Loads++
			if isLoadChase {
				p.LoadLoadDeps++
			}
		}
		if in.HasDst() {
			lastWrite[in.Dst] = seq
			lastWriteIsLoad[in.Dst] = in.Class == isa.Load
		}

		if in.Class.IsBranch() {
			repeat := false
			if prev, seen := lastOutcome[in.PC]; seen && prev == in.Taken {
				repeat = true
			}
			idx, tracked := branchIdx[in.PC]
			if !tracked && len(p.Branches) < maxStaticBranches {
				idx = len(p.Branches)
				p.Branches = append(p.Branches, StaticBranch{})
				branchIdx[in.PC] = idx
				tracked = true
			}
			if counting {
				p.BranchTotal++
				if in.Taken {
					p.BranchTaken++
				}
				if repeat {
					p.BranchRepeats++
				}
				if tracked {
					b := &p.Branches[idx]
					b.Count++
					if in.Taken {
						b.Taken++
					}
					if repeat {
						b.Repeats++
					}
				}
			}
			if tracked {
				lastOutcome[in.PC] = in.Taken
			}
		}

		if in.Class.IsMem() {
			line := int64(in.Addr >> 6)
			if counting && lastLine >= 0 {
				p.StrideCount[classifyStride(line-lastLine)]++
			}
			lastLine = line
			if len(dataLines) < maxTrackedLines {
				dataLines[uint64(line)] = struct{}{}
			}
			if counting {
				p.DataAccesses++
			}
			write := in.Class == isa.Store
			if hit := l1d.Access(in.Addr, write); hit {
				if counting {
					p.L1DHits++
				}
			} else {
				l1d.Fill(in.Addr, write)
				if l2.Access(in.Addr, false) {
					if counting {
						p.L2DHits++
					}
				} else {
					l2.Fill(in.Addr, false)
					if counting {
						p.ColdMisses++
						if lastColdAt < 0 || p.DataAccesses-uint64(lastColdAt) > missClusterGap {
							p.ColdClusters++
						}
						lastColdAt = int64(p.DataAccesses)
					}
				}
			}
		}
		if len(codeLines) < maxTrackedLines {
			codeLines[in.PC>>6] = struct{}{}
		}
		if hit := l1i.Access(in.PC, false); !hit {
			if counting {
				p.L1IMissesPer++
			}
			l1i.Fill(in.PC, false)
		}
		seq++
	}
	p.StaticBranches = len(lastOutcome)
	p.DataLines = len(dataLines)
	p.CodeLines = len(codeLines)
	return p
}

func classifyStride(delta int64) int {
	switch {
	case delta == 0:
		return strideSame
	case delta == 1:
		return strideNext
	case delta == -1:
		return stridePrev
	case delta >= -8 && delta <= 8:
		return strideNear
	default:
		return strideFar
	}
}

// ClassFrac returns the fraction of profiled instructions of class c.
func (p *Profile) ClassFrac(c isa.Class) float64 {
	if p.Total == 0 {
		return 0
	}
	return float64(p.ClassCount[c]) / float64(p.Total)
}

// TakenRate returns the fraction of branches taken.
func (p *Profile) TakenRate() float64 {
	if p.BranchTotal == 0 {
		return 0
	}
	return float64(p.BranchTaken) / float64(p.BranchTotal)
}

// RepeatRate returns the fraction of branches repeating their previous
// outcome (per static branch).
func (p *Profile) RepeatRate() float64 {
	if p.BranchTotal == 0 {
		return 0
	}
	return float64(p.BranchRepeats) / float64(p.BranchTotal)
}
