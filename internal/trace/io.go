package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/isa"
)

// Binary trace format: a magic header followed by fixed-width little-endian
// instruction records. Recording a generated stream lets an experiment be
// replayed exactly (e.g. feeding the identical committed stream to an
// external tool, or rerunning a timing study without regenerating), which
// is the natural workflow for a functional-first simulator. The full
// layout is documented in docs/formats.md.
//
// File version 2 extends the header with the provenance a replayed stream
// cannot reconstruct from its records: the workload stream-format
// generation that produced it (so traces recorded before a deliberate
// stream break are rejected loudly instead of silently timing stale
// streams) and the address-space slot the stream was instantiated at.
//
// File version 3 marks the stream-format v3 break (counter-based RNG +
// tabulated geometric sampling in the workload generator): the layout is
// unchanged from v2, but v2 traces record streams no v3 generator can
// reproduce, so they are rejected on replay with a re-record hint.

const (
	traceMagic   = uint32(0x49564c53) // "SLVI"
	traceVersion = uint32(3)
	headerBytes  = 4 + 4 + 4 + 4                         // magic, file version, Header fields
	recordBytes  = 8 + 8 + 1 + 1 + 1 + 1 + 8 + 1 + 8 + 2 // fields below
)

// Header is the recorded stream's provenance, carried in the trace file
// after the magic and file version.
type Header struct {
	// StreamVersion is the workload stream-format generation
	// (workload.StreamVersion) the recorded stream was generated under.
	// Recorders must set it; replays read it back so front ends can
	// refuse to mix stream generations.
	StreamVersion uint32
	// Slot is the address-space slot the stream was instantiated at
	// (workload.NewSlot); 0 for single-program streams.
	Slot uint32
}

// WriteTrace drains src to w in binary format, writing at most n
// instructions under the given provenance header. It returns the number
// written.
func WriteTrace(w io.Writer, src Stream, n int, h Header) (int, error) {
	bw := bufio.NewWriter(w)
	var hdr [headerBytes]byte
	binary.LittleEndian.PutUint32(hdr[0:], traceMagic)
	binary.LittleEndian.PutUint32(hdr[4:], traceVersion)
	binary.LittleEndian.PutUint32(hdr[8:], h.StreamVersion)
	binary.LittleEndian.PutUint32(hdr[12:], h.Slot)
	if _, err := bw.Write(hdr[:]); err != nil {
		return 0, fmt.Errorf("trace: writing header: %w", err)
	}
	var rec [recordBytes]byte
	rd := NewBuffered(NewLimit(src, n), min(n, 4096))
	written := 0
	for {
		in, ok := rd.Next()
		if !ok {
			break
		}
		encode(&rec, &in)
		if _, err := bw.Write(rec[:]); err != nil {
			return written, fmt.Errorf("trace: writing record %d: %w", written, err)
		}
		written++
	}
	return written, bw.Flush()
}

func encode(rec *[recordBytes]byte, in *isa.Inst) {
	binary.LittleEndian.PutUint64(rec[0:], in.Seq)
	binary.LittleEndian.PutUint64(rec[8:], in.PC)
	rec[16] = uint8(in.Class)
	rec[17] = in.Src1
	rec[18] = in.Src2
	rec[19] = in.Dst
	binary.LittleEndian.PutUint64(rec[20:], in.Addr)
	if in.Taken {
		rec[28] = 1
	} else {
		rec[28] = 0
	}
	binary.LittleEndian.PutUint64(rec[29:], in.Target)
	binary.LittleEndian.PutUint16(rec[37:], in.SyncID)
}

func decode(rec *[recordBytes]byte) isa.Inst {
	return isa.Inst{
		Seq:    binary.LittleEndian.Uint64(rec[0:]),
		PC:     binary.LittleEndian.Uint64(rec[8:]),
		Class:  isa.Class(rec[16]),
		Src1:   rec[17],
		Src2:   rec[18],
		Dst:    rec[19],
		Addr:   binary.LittleEndian.Uint64(rec[20:]),
		Taken:  rec[28] == 1,
		Target: binary.LittleEndian.Uint64(rec[29:]),
		SyncID: binary.LittleEndian.Uint16(rec[37:]),
	}
}

// validate rejects record bytes no encoder writes: a class beyond the ISA,
// a register that is neither architectural nor RegNone (the timing models
// index register tables with it), or a taken byte other than 0 or 1.
func validate(rec *[recordBytes]byte) error {
	if c := rec[16]; int(c) >= isa.NumClasses {
		return fmt.Errorf("class %d out of range", c)
	}
	for i, name := range [3]string{"src1", "src2", "dst"} {
		if r := rec[17+i]; r >= isa.NumRegs && r != isa.RegNone {
			return fmt.Errorf("%s register %d out of range", name, r)
		}
	}
	if t := rec[28]; t > 1 {
		return fmt.Errorf("taken byte %d is not 0 or 1", t)
	}
	return nil
}

// Reader replays a binary trace from an io.Reader. It implements Stream.
type Reader struct {
	br   *bufio.Reader
	hdr  Header
	read int // records decoded so far
	err  error
}

// NewReader validates the trace header and returns a replaying Stream.
// Traces written under an older file version are rejected with an error
// saying to re-record them: a version bump marks a deliberate
// stream-format break, after which old traces time streams that no
// current configuration can reproduce.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReader(r)
	var hdr [headerBytes]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != traceMagic {
		return nil, fmt.Errorf("trace: bad magic %#x", binary.LittleEndian.Uint32(hdr[0:]))
	}
	if v := binary.LittleEndian.Uint32(hdr[4:]); v != traceVersion {
		return nil, fmt.Errorf("trace: unsupported trace file version %d (this build reads v%d; the version changes only on a deliberate stream-format break — re-record the trace with cmd/tracegen)", v, traceVersion)
	}
	return &Reader{
		br: br,
		hdr: Header{
			StreamVersion: binary.LittleEndian.Uint32(hdr[8:]),
			Slot:          binary.LittleEndian.Uint32(hdr[12:]),
		},
	}, nil
}

// Header returns the provenance header recorded with the trace.
func (r *Reader) Header() Header { return r.hdr }

// NextBatch implements Stream. It stops at the first truncated or invalid
// record; Err then reports it.
func (r *Reader) NextBatch(buf []isa.Inst) int {
	var rec [recordBytes]byte
	n := 0
	for ; n < len(buf) && r.err == nil; n++ {
		if _, err := io.ReadFull(r.br, rec[:]); err == io.EOF {
			r.err = err
			break
		} else if err != nil {
			r.err = fmt.Errorf("trace: record %d: %w", r.read, err)
			break
		}
		if err := validate(&rec); err != nil {
			r.err = fmt.Errorf("trace: record %d: %w", r.read, err)
			break
		}
		buf[n] = decode(&rec)
		r.read++
	}
	return n
}

// Err returns the terminal error, nil on clean EOF.
func (r *Reader) Err() error {
	if r.err == io.EOF {
		return nil
	}
	return r.err
}
