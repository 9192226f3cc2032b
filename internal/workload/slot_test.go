package workload

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/trace"
)

// shiftSlot applies the slot-k address transform to a slot-0 instruction:
// the constant offset on every address-carrying field, nothing else.
func shiftSlot(in isa.Inst, slot int) isa.Inst {
	off := uint64(slot) * SlotStride
	in.PC += off
	if in.Class.IsMem() {
		in.Addr += off
	}
	if in.Target != 0 {
		in.Target += off
	}
	return in
}

// TestSlotZeroIsNew: New is exactly NewSlot at slot 0 — the v2 format
// changes nothing for single-program streams.
func TestSlotZeroIsNew(t *testing.T) {
	p := SPECByName("gcc")
	a := trace.Record(New(p, 0, 1, 42), 20_000)
	b := trace.Record(NewSlot(p, 0, 1, 42, 0), 20_000)
	if len(a) != len(b) {
		t.Fatalf("slot-0 stream has %d insts, New %d", len(b), len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("inst %d: slot-0 stream differs from New: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestSlotStreamsBitIdentical: the slot-k stream is the slot-0 stream
// with k*SlotStride added to PC, Target and Addr — the slot never enters
// a random draw, so the two streams are bit-identical modulo the
// constant offset. This is the v2 format's core guarantee: moving a copy
// between slots cannot change its simulated behaviour.
func TestSlotStreamsBitIdentical(t *testing.T) {
	// gcc covers serializing user code; blackscholes covers the kernel
	// (SystemFrac) program and sync instructions.
	for _, name := range []string{"gcc", "mcf"} {
		p := SPECByName(name)
		base := trace.Record(New(p, 0, 1, 42), 20_000)
		at := trace.Record(NewSlot(p, 0, 1, 42, 5), 20_000)
		if len(base) != len(at) {
			t.Fatalf("%s: streams end at different points (%d vs %d)", name, len(base), len(at))
		}
		for i, ib := range base {
			if is, want := at[i], shiftSlot(ib, 5); is != want {
				t.Fatalf("%s inst %d: slot stream diverged beyond the offset:\ngot  %+v\nwant %+v", name, i, is, want)
			}
		}
	}
	p := PARSECByName("blackscholes")
	base := trace.Record(New(p, 1, 4, 42), 20_000)
	at := trace.Record(NewSlot(p, 1, 4, 42, 3), 20_000)
	if len(base) != len(at) {
		t.Fatalf("blackscholes: streams end at different points (base=%d slot=%d)", len(base), len(at))
	}
	for i, ib := range base {
		if is, want := at[i], shiftSlot(ib, 3); is != want {
			t.Fatalf("blackscholes inst %d: slot stream diverged beyond the offset:\ngot  %+v\nwant %+v", i, is, want)
		}
	}
}

// TestSlotOutOfRangePanics: slots at or beyond MaxSlots would wrap the
// 64-bit address space and silently alias another slot, so the
// constructor must refuse them.
func TestSlotOutOfRangePanics(t *testing.T) {
	for _, slot := range []int{-1, MaxSlots} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("slot %d accepted, want panic", slot)
				}
			}()
			NewSlot(SPECByName("gcc"), 0, 1, 42, slot)
		}()
	}
}

// TestSlotAddressSpacesDisjoint: two different programs in two different
// slots must never touch the same cache line — code or data — which is
// what removes the phantom coherence traffic from Mix workloads.
func TestSlotAddressSpacesDisjoint(t *testing.T) {
	lines := func(name string, slot int) map[uint64]bool {
		g := NewSlot(SPECByName(name), 0, 1, 42+int64(slot), slot)
		out := map[uint64]bool{}
		for _, in := range trace.Record(g, 50_000) {
			out[in.PC>>6] = true
			if in.Class.IsMem() {
				out[in.Addr>>6] = true
			}
		}
		return out
	}
	a := lines("gcc", 0)
	b := lines("mcf", 1)
	for line := range b {
		if a[line] {
			t.Fatalf("slots 0 and 1 share cache line %#x", line<<6)
		}
	}
}
