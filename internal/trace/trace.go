// Package trace defines the ACT-record trace formats and the streaming
// decoder behind the server-scale replay pipeline.
//
// A trace is an ordered stream of physical addresses, one per row
// activation, together with the addrmap.Mapping that gives the addresses
// meaning. Two encodings share that model:
//
//   - A compact binary form (one fixed-width 8-byte record per ACT, a
//     32-byte self-describing header) built for multi-GB replay: the Reader
//     streams records in caller-supplied batches with zero allocations per
//     record on the steady path.
//   - A line-oriented text form (see text.go) that is diff-friendly and
//     hand-editable, mirroring patterns.ReadTrace's strictness: unknown keys
//     are rejected and errors carry line numbers.
//
// Anything that yields ACT records — a decoded trace file, an in-memory
// slice, a workload generator — implements Source, so the replay engine is
// indifferent to where the records come from.
package trace

import "pride/internal/addrmap"

// Source is an ordered stream of ACT records (physical addresses) under a
// fixed address mapping. ReadBatch fills dst with up to len(dst) records and
// returns how many it wrote; it returns io.EOF (with n == 0) once the stream
// is exhausted. Implementations must be cheap to call in a tight loop — the
// replay demux calls ReadBatch with a reused batch buffer.
type Source interface {
	Mapping() addrmap.Mapping
	ReadBatch(dst []uint64) (int, error)
}

// SliceSource adapts an in-memory record slice to Source. The zero value is
// not usable; build one with NewSliceSource.
type SliceSource struct {
	m     addrmap.Mapping
	addrs []uint64
	pos   int
}

// NewSliceSource returns a Source reading the given records in order. The
// slice is not copied; the caller must not mutate it while reading.
func NewSliceSource(m addrmap.Mapping, addrs []uint64) *SliceSource {
	return &SliceSource{m: m, addrs: addrs}
}

// Mapping returns the address mapping the records are encoded under.
func (s *SliceSource) Mapping() addrmap.Mapping { return s.m }

// Count returns the number of records the source holds.
func (s *SliceSource) Count() uint64 { return uint64(len(s.addrs)) }

// ReadBatch implements Source.
func (s *SliceSource) ReadBatch(dst []uint64) (int, error) {
	n := copy(dst, s.addrs[s.pos:])
	s.pos += n
	if n == 0 {
		return 0, errEOF
	}
	return n, nil
}

// Reset rewinds the source to the first record, so the same SliceSource can
// drive repeated replays.
func (s *SliceSource) Reset() { s.pos = 0 }
