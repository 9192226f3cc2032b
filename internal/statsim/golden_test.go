package statsim

import (
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/trace"
)

// cloneGolden is the FNV-64a hash of a fixed clone generation
// (gcc-profile, length 4096, seed 7). Pinning the exact byte stream —
// not just run-to-run equality — catches silent changes to the
// generation order: any edit to the clone generator that alters its
// output must update this constant deliberately.
const cloneGolden uint64 = 0x17a9e9f311f23631

// hashInsts folds every instruction field into one digest, in stream
// order.
func hashInsts(insts []trace.Stream) uint64 {
	h := fnv.New64a()
	for _, s := range insts {
		rd := trace.NewBuffered(s, 1024)
		for {
			in, ok := rd.Next()
			if !ok {
				break
			}
			fmt.Fprintf(h, "%+v|", in)
		}
	}
	return h.Sum64()
}

func TestCloneGolden(t *testing.T) {
	p := Collect(specStream("gcc", 20_000, 42), 0)
	got := hashInsts([]trace.Stream{NewClone(p, 4096, 7)})
	if got != cloneGolden {
		t.Errorf("clone stream hash %#x, golden %#x — if the generator changed deliberately, update cloneGolden", got, cloneGolden)
	}
}
