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
//
// Every record is one ACT: closed-page semantics. A generated row hit is one
// more ACT of the open row, so a replay counts it as an activation, and REF
// and RFM cadences count it too. Fig 14's perfsim treats the same hit as a
// row-buffer hit with no ACT, so for one stream a replay counts about
// 1/(1-RowHitRate) times the ACTs perfsim does. The repeats come in runs of
// identical consecutive records — about RowHitRate of the records repeat
// the one before them — which the replay's shard queues store one entry
// per run.
type AddrSource struct {
	compiled addrmap.Compiled
	// hit is the spec's RowHitRate as a Bernoulli threshold, computed once.
	hit rng.Threshold
	// channels, ranks, banks and rows are the mapping's geometry, read once
	// so a row miss draws a coordinate without re-deriving it.
	channels, ranks, banks, rows int
	n                            int
	emitted                      int
	// x is the generator itself rather than a Stream over it: ReadBatch
	// copies it into a local for the batch, so each draw works on a
	// register instead of loading and storing the state through a pointer.
	x rng.XorShift64Star
	// cur is the encoded address of the open row: a row hit repeats it, a
	// miss draws and encodes a fresh one.
	cur uint64
}

// StreamVersion versions the record stream AddrSource generates for a
// given (spec, mapping, n, seed). A key built from a generated stream's
// inputs instead of its records, such as pride-serve's key for a generated
// replay job, must include it: a deliberate change to the stream bumps it,
// so every key derived from the old stream stops matching instead of
// naming records the source no longer emits.
const StreamVersion = 1

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
		compiled: c, hit: rng.NewThreshold(spec.RowHitRate), n: n,
		x:        *rng.NewXorShift64Star(seed),
		channels: c.Channels(), ranks: c.Ranks(), banks: c.Banks(), rows: c.Rows(),
	}
	s.cur, s.x = s.miss(s.x)
	return s
}

// miss draws a uniformly random coordinate from x — channel, rank, bank,
// row, in that order — and returns its encoded address and the advanced
// generator. Taking and returning x by value keeps ReadBatch's copy out of
// memory.
func (s *AddrSource) miss(x rng.XorShift64Star) (uint64, rng.XorShift64Star) {
	var co addrmap.Coord
	co.Channel = x.Intn(s.channels)
	co.Rank = x.Intn(s.ranks)
	co.Bank = x.Intn(s.banks)
	co.Row = x.Intn(s.rows)
	return s.compiled.Encode(co), x
}

// Mapping implements trace.Source.
func (s *AddrSource) Mapping() addrmap.Mapping { return s.compiled.Mapping() }

// Count returns the total number of records the source emits.
func (s *AddrSource) Count() uint64 { return uint64(s.n) }

// ReadBatch implements trace.Source. A row hit costs one draw and a store;
// only a miss draws a coordinate and encodes it.
func (s *AddrSource) ReadBatch(dst []uint64) (int, error) {
	if s.emitted == s.n {
		return 0, io.EOF
	}
	if left := s.n - s.emitted; len(dst) > left {
		dst = dst[:left]
	}
	x, cur, hit := s.x, s.cur, s.hit
	for i := range dst {
		if !x.BernoulliT(hit) {
			cur, x = s.miss(x)
		}
		dst[i] = cur
	}
	s.x, s.cur = x, cur
	s.emitted += len(dst)
	return len(dst), nil
}
