package trace

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/workload"
)

// TestTraceRejectsCorruptRecords: a record whose class, register or taken
// byte no encoder writes ends the replay at that record, and Err names
// the record and the field.
func TestTraceRejectsCorruptRecords(t *testing.T) {
	const bad = 3
	for _, tc := range []struct {
		name   string
		offset int // byte within the record
		value  byte
		want   string
	}{
		{"class", 16, 0xEE, "class 238"},
		{"register", 18, 0x90, "src2 register 144"},
		{"taken", 28, 2, "taken byte 2"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			if _, err := WriteTrace(&buf, NewSliceStream(synthetic(10)), 10, Header{}); err != nil {
				t.Fatal(err)
			}
			raw := buf.Bytes()
			raw[headerBytes+bad*recordBytes+tc.offset] = tc.value
			r, err := NewReader(bytes.NewReader(raw))
			if err != nil {
				t.Fatal(err)
			}
			if got := Record(r, 100); len(got) != bad {
				t.Fatalf("replayed %d records past the corrupt one at %d", len(got), bad)
			}
			err = r.Err()
			if err == nil {
				t.Fatal("corrupt record accepted")
			}
			if msg := err.Error(); !strings.Contains(msg, "record 3") || !strings.Contains(msg, tc.want) {
				t.Fatalf("error %q does not name record 3 and %q", msg, tc.want)
			}
		})
	}
}

// FuzzTraceReader feeds arbitrary bytes through NewReader and NextBatch:
// every input must either be rejected (by NewReader or Err) or replay to
// records that WriteTrace turns back into exactly the input bytes. It
// must never panic.
func FuzzTraceReader(f *testing.F) {
	var rec bytes.Buffer
	g := workload.New(workload.SPECByName("gcc"), 0, 1, 42)
	if _, err := WriteTrace(&rec, g, 50, Header{StreamVersion: workload.StreamVersion}); err != nil {
		f.Fatal(err)
	}
	valid := rec.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)-7])
	badMagic := append([]byte(nil), valid...)
	badMagic[0] ^= 0xFF
	f.Add(badMagic)
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		var insts []isa.Inst
		buf := make([]isa.Inst, 16)
		for {
			k := r.NextBatch(buf)
			if k == 0 {
				break
			}
			insts = append(insts, buf[:k]...)
		}
		if r.Err() != nil {
			return
		}
		var out bytes.Buffer
		if _, err := WriteTrace(&out, NewSliceStream(insts), len(insts), r.Header()); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), data) {
			t.Fatalf("accepted %d bytes (%d records) re-encode to %d different bytes", len(data), len(insts), out.Len())
		}
	})
}
