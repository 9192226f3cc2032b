package trace

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/isa"
)

func insts(n int) []isa.Inst {
	out := make([]isa.Inst, n)
	for i := range out {
		out[i] = isa.Inst{Seq: uint64(i), Class: isa.IntALU}
	}
	return out
}

func TestSliceStreamReplaysInOrder(t *testing.T) {
	s := NewSliceStream(insts(5))
	got := Record(s, 10)
	if len(got) != 5 {
		t.Fatalf("replayed %d insts, want 5", len(got))
	}
	for i, in := range got {
		if in.Seq != uint64(i) {
			t.Fatalf("pos %d: Seq %d", i, in.Seq)
		}
	}
	if s.NextBatch(make([]isa.Inst, 1)) != 0 {
		t.Fatal("stream did not end")
	}
	s.Reset()
	if in := Record(s, 1); len(in) != 1 || in[0].Seq != 0 {
		t.Fatal("Reset did not rewind")
	}
}

func TestLimitEndsEarly(t *testing.T) {
	s := NewLimit(NewSliceStream(insts(10)), 3)
	if n := len(Record(s, 100)); n != 3 {
		t.Fatalf("limit yielded %d, want 3", n)
	}
}

func TestLimitShorterSource(t *testing.T) {
	s := NewLimit(NewSliceStream(insts(2)), 5)
	if n := len(Record(s, 100)); n != 2 {
		t.Fatalf("limit yielded %d, want 2 (source shorter)", n)
	}
}

func TestRecord(t *testing.T) {
	got := Record(NewSliceStream(insts(10)), 4)
	if len(got) != 4 || got[3].Seq != 3 {
		t.Fatalf("record = %d insts", len(got))
	}
	got = Record(NewSliceStream(insts(2)), 4)
	if len(got) != 2 {
		t.Fatalf("record past end = %d insts", len(got))
	}
}

func TestStats(t *testing.T) {
	var st Stats
	items := []isa.Inst{
		{Class: isa.Load}, {Class: isa.Store}, {Class: isa.Branch},
		{Class: isa.Call}, {Class: isa.IntALU}, {Class: isa.IntALU},
	}
	for i := range items {
		st.Observe(&items[i])
	}
	if st.Total != 6 || st.Memory != 2 || st.Branches != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if got := st.Frac(isa.IntALU); got != 2.0/6 {
		t.Fatalf("Frac = %v", got)
	}
	var empty Stats
	if empty.Frac(isa.Load) != 0 {
		t.Fatal("Frac on empty stats nonzero")
	}
}

func TestTraceRoundTrip(t *testing.T) {
	src := []isa.Inst{
		{Seq: 0, PC: 0x400000, Class: isa.IntALU, Src1: 3, Src2: isa.RegNone, Dst: 9},
		{Seq: 1, PC: 0x400004, Class: isa.Load, Addr: 0x123456789A, Src1: 9, Src2: isa.RegNone, Dst: 10},
		{Seq: 2, PC: 0x400008, Class: isa.Branch, Taken: true, Target: 0x400100},
		{Seq: 3, PC: 0x40000C, Class: isa.LockAcquire, SyncID: 7},
	}
	var buf bytes.Buffer
	n, err := WriteTrace(&buf, NewSliceStream(src), 10, Header{StreamVersion: 3, Slot: 3})
	if err != nil || n != 4 {
		t.Fatalf("WriteTrace = (%d,%v)", n, err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if h := r.Header(); h.StreamVersion != 3 || h.Slot != 3 {
		t.Fatalf("header did not round-trip: %+v", h)
	}
	got := Record(r, 10)
	if len(got) != len(src) {
		t.Fatalf("replayed %d records, want %d", len(got), len(src))
	}
	for i, want := range src {
		if got[i] != want {
			t.Fatalf("record %d: got %+v want %+v", i, got[i], want)
		}
	}
	if r.Err() != nil {
		t.Fatalf("terminal error: %v", r.Err())
	}
}

func TestTraceBadHeader(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte{1, 2, 3})); err == nil {
		t.Fatal("short header accepted")
	}
	if _, err := NewReader(bytes.NewReader(make([]byte, 16))); err == nil {
		t.Fatal("bad magic accepted")
	}
}

// Stale traces must be rejected with an error that tells the user to
// re-record: the file version only moves on a deliberate stream-format
// break. Covers both a v1-era trace (old 8-byte header, no provenance
// fields) and a v2 trace (recorded before the v3 counter-RNG break),
// asserting the message names the versions and the recovery path.
func TestTraceStaleVersionRejected(t *testing.T) {
	for _, stale := range []uint32{1, 2} {
		var hdr [16]byte
		binary.LittleEndian.PutUint32(hdr[0:], 0x49564c53)
		binary.LittleEndian.PutUint32(hdr[4:], stale)
		_, err := NewReader(bytes.NewReader(hdr[:]))
		if err == nil {
			t.Fatalf("v%d trace accepted", stale)
		}
		msg := err.Error()
		if !strings.Contains(msg, "re-record") {
			t.Fatalf("stale-version error does not say how to recover: %v", err)
		}
		if !strings.Contains(msg, fmt.Sprintf("version %d", stale)) || !strings.Contains(msg, "v3") {
			t.Fatalf("stale-version error does not name the versions: %v", err)
		}
	}
}

func TestTraceLimitsWrites(t *testing.T) {
	var buf bytes.Buffer
	n, err := WriteTrace(&buf, NewSliceStream(insts(100)), 7, Header{})
	if err != nil || n != 7 {
		t.Fatalf("WriteTrace = (%d,%v), want 7", n, err)
	}
}

// Property: encode/decode round-trips arbitrary valid instruction records.
func TestQuickTraceRoundTrip(t *testing.T) {
	// reg maps any byte onto a valid operand: an architectural register
	// or RegNone.
	reg := func(b uint8) uint8 {
		if r := b % (isa.NumRegs + 1); r < isa.NumRegs {
			return r
		}
		return isa.RegNone
	}
	f := func(seq, pc, addr, target uint64, class, s1, s2, d uint8, taken bool, id uint16) bool {
		in := isa.Inst{
			Seq: seq, PC: pc, Class: isa.Class(class % uint8(isa.NumClasses)),
			Src1: reg(s1), Src2: reg(s2), Dst: reg(d), Addr: addr, Taken: taken,
			Target: target, SyncID: id,
		}
		var buf bytes.Buffer
		if n, err := WriteTrace(&buf, NewSliceStream([]isa.Inst{in}), 1, Header{}); n != 1 || err != nil {
			return false
		}
		r, err := NewReader(&buf)
		if err != nil {
			return false
		}
		got := Record(r, 2)
		return len(got) == 1 && got[0] == in && r.Err() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
