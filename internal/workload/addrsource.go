package workload

import (
	"fmt"
	"io"

	"pride/internal/addrmap"
	"pride/internal/rng"
)

// AddrSource streams a workload's ACT records as physical addresses under an
// address mapping: the generator→trace adapter that makes every workload one
// trace.Source among several, so Fig 14 traffic replays through the same
// server-scale pipeline as recorded traces.
//
// Locality is modelled exactly like Trace, lifted to the full topology: a
// row hit repeats the previous (channel, rank, bank, row); a miss draws a
// fresh coordinate uniformly. Columns are always zero — the replay pipeline
// works in ACT granularity, where the column carries no information. The
// stream is deterministic in (spec, mapping, n, seed), so writing the
// records to a trace file and replaying the file is bit-identical to
// replaying the source directly.
type AddrSource struct {
	spec     Spec
	compiled addrmap.Compiled
	// channels, ranks, banks and rows are the mapping's geometry, read once
	// so a row miss draws a coordinate without re-deriving it.
	channels, ranks, banks, rows int
	n                            int
	emitted                      int
	r                            *rng.Stream
	cur                          addrmap.Coord
}

// NewAddrSource returns a source of exactly n ACT records for spec under
// mapping m, deterministically from seed. It panics on an invalid spec,
// mapping, or shape (experiment-setup-time failure).
func NewAddrSource(spec Spec, m addrmap.Mapping, n int, seed uint64) *AddrSource {
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	if n < 0 {
		panic(fmt.Sprintf("workload: negative record count %d", n))
	}
	c := m.MustCompile()
	s := &AddrSource{
		spec: spec, compiled: c, n: n, r: rng.New(seed),
		channels: c.Channels(), ranks: c.Ranks(), banks: c.Banks(), rows: c.Rows(),
	}
	s.draw()
	return s
}

// draw moves the cursor to a uniformly drawn coordinate: a row miss.
func (s *AddrSource) draw() {
	s.cur.Channel = s.r.Intn(s.channels)
	s.cur.Rank = s.r.Intn(s.ranks)
	s.cur.Bank = s.r.Intn(s.banks)
	s.cur.Row = s.r.Intn(s.rows)
}

// Mapping implements trace.Source.
func (s *AddrSource) Mapping() addrmap.Mapping { return s.compiled.Mapping() }

// Count returns the total number of records the source emits.
func (s *AddrSource) Count() uint64 { return uint64(s.n) }

// ReadBatch implements trace.Source.
func (s *AddrSource) ReadBatch(dst []uint64) (int, error) {
	if s.emitted == s.n {
		return 0, io.EOF
	}
	n := len(dst)
	if left := s.n - s.emitted; n > left {
		n = left
	}
	for i := 0; i < n; i++ {
		if !s.r.Bernoulli(s.spec.RowHitRate) {
			s.draw()
		}
		dst[i] = s.compiled.Encode(s.cur)
	}
	s.emitted += n
	return n, nil
}
