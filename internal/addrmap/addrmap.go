// Package addrmap models DRAM address translation: the controller-visible
// decomposition of physical addresses into (channel, rank, bank, row,
// column), and the proprietary in-DRAM row remapping that Section II-D
// identifies as the reason memory-controller-side mitigations struggle —
// "DRAM chips internally use proprietary mappings, which makes it hard to
// identify the row adjacency information".
//
// Two pieces:
//
//   - Mapping: a configurable bit-field decoder with XOR-based bank hashing
//     (the standard controller-side interleaving).
//   - RowScrambler: a keyed bijection over row addresses standing in for the
//     vendor's internal remap. External row r sits physically at
//     Scramble(r); externally adjacent rows are NOT physically adjacent, so
//     an MC-side defense refreshing r±1 protects the wrong cells.
package addrmap

import (
	"fmt"
	"strconv"
	"strings"
)

// Mapping describes how a physical address splits into DRAM coordinates,
// lowest bits first: column, then bank (XOR-hashed with row bits), then row,
// then rank/channel. All widths are in bits.
type Mapping struct {
	ColumnBits  int
	BankBits    int
	RowBits     int
	RankBits    int
	ChannelBits int
	// XORBankHash, when true, XORs the bank index with the low row bits —
	// the permutation-based interleaving controllers use to spread row
	// conflicts across banks.
	XORBankHash bool
}

// DefaultDDR5 returns a mapping for the paper's 32GB single-channel system:
// 8KB rows (13 column bits at 1B granularity... modelled as 13), 32 banks,
// 128K rows.
func DefaultDDR5() Mapping {
	return Mapping{ColumnBits: 13, BankBits: 5, RowBits: 17, RankBits: 0, ChannelBits: 0, XORBankHash: true}
}

// Validate reports whether the mapping is usable.
func (m Mapping) Validate() error {
	if m.ColumnBits < 0 || m.BankBits < 0 || m.RowBits <= 0 || m.RankBits < 0 || m.ChannelBits < 0 {
		return fmt.Errorf("addrmap: negative or zero field widths: %+v", m)
	}
	// Each width is bounded before the sum, which could otherwise wrap
	// around to a small total.
	total := 0
	for _, w := range [...]int{m.ColumnBits, m.BankBits, m.RowBits, m.RankBits, m.ChannelBits} {
		if w > 62 {
			return fmt.Errorf("addrmap: %d-bit field exceeds 62 address bits", w)
		}
		total += w
	}
	if total > 62 {
		return fmt.Errorf("addrmap: %d address bits exceed 62", total)
	}
	if m.XORBankHash && m.RowBits < m.BankBits {
		return fmt.Errorf("addrmap: XOR hash needs RowBits >= BankBits")
	}
	return nil
}

// String renders the mapping in the canonical parseable form used by the
// trace text format and the CLI -mapping flag:
// "col=13 bank=5 row=17 rank=0 chan=0 xor=1".
func (m Mapping) String() string {
	xor := 0
	if m.XORBankHash {
		xor = 1
	}
	return fmt.Sprintf("col=%d bank=%d row=%d rank=%d chan=%d xor=%d",
		m.ColumnBits, m.BankBits, m.RowBits, m.RankBits, m.ChannelBits, xor)
}

// ParseMapping parses the canonical mapping syntax produced by String:
// space- or comma-separated key=value fields with keys col, bank, row, rank,
// chan, xor. Every key must appear exactly once, and the result must
// Validate — a typo in a hand-edited trace header should fail loudly, not
// silently change the geometry.
func ParseMapping(s string) (Mapping, error) {
	var m Mapping
	seen := map[string]bool{}
	fields := strings.FieldsFunc(s, func(r rune) bool { return r == ' ' || r == ',' || r == '\t' })
	for _, f := range fields {
		key, val, found := strings.Cut(f, "=")
		if !found {
			return Mapping{}, fmt.Errorf("addrmap: mapping field %q is not key=value", f)
		}
		v, err := strconv.Atoi(val)
		if err != nil {
			return Mapping{}, fmt.Errorf("addrmap: mapping field %q: bad value %q", key, val)
		}
		if seen[key] {
			return Mapping{}, fmt.Errorf("addrmap: duplicate mapping field %q", key)
		}
		seen[key] = true
		switch key {
		case "col":
			m.ColumnBits = v
		case "bank":
			m.BankBits = v
		case "row":
			m.RowBits = v
		case "rank":
			m.RankBits = v
		case "chan":
			m.ChannelBits = v
		case "xor":
			switch v {
			case 0:
			case 1:
				m.XORBankHash = true
			default:
				return Mapping{}, fmt.Errorf("addrmap: mapping field xor must be 0 or 1, got %d", v)
			}
		default:
			return Mapping{}, fmt.Errorf("addrmap: unknown mapping field %q", key)
		}
	}
	for _, key := range []string{"col", "bank", "row", "rank", "chan", "xor"} {
		if !seen[key] {
			return Mapping{}, fmt.Errorf("addrmap: mapping is missing field %q", key)
		}
	}
	if err := m.Validate(); err != nil {
		return Mapping{}, err
	}
	return m, nil
}

// Coord is a decoded DRAM coordinate.
type Coord struct {
	Channel int
	Rank    int
	Bank    int
	Row     int
	Column  int
}

// Compiled is a mapping validated once, with the per-field shifts and masks
// precomputed, so the per-record Decode/Encode on the trace-replay hot path
// costs a handful of shift/mask operations and no validation branches. It is
// a plain value (no allocation); build one with Compile or MustCompile and
// reuse it. The per-record methods (InRange, Decode, Route, Encode) take a
// pointer receiver so a call never copies the struct; hold the Compiled in a
// variable or field to call them. The geometry accessors take a value and
// work on any Compiled, including MustCompile's result.
type Compiled struct {
	m Mapping

	colMask, bankMask, rowMask, rankMask, chanMask uint64
	bankShift, rowShift, rankShift, chanShift      uint
	// addrMask covers every mapped bit; addresses with bits outside it do
	// not correspond to any coordinate.
	addrMask uint64
	// xorMask is bankMask when the XOR bank hash is active, else 0, so the
	// hash costs one unconditional AND/XOR instead of a branch.
	xorMask uint64
}

// Compile validates the mapping once and returns its compiled form.
func (m Mapping) Compile() (Compiled, error) {
	if err := m.Validate(); err != nil {
		return Compiled{}, err
	}
	c := Compiled{m: m}
	mask := func(bits int) uint64 { return (uint64(1) << bits) - 1 }
	c.colMask = mask(m.ColumnBits)
	c.bankMask = mask(m.BankBits)
	c.rowMask = mask(m.RowBits)
	c.rankMask = mask(m.RankBits)
	c.chanMask = mask(m.ChannelBits)
	c.bankShift = uint(m.ColumnBits)
	c.rowShift = c.bankShift + uint(m.BankBits)
	c.rankShift = c.rowShift + uint(m.RowBits)
	c.chanShift = c.rankShift + uint(m.RankBits)
	c.addrMask = mask(m.ColumnBits + m.BankBits + m.RowBits + m.RankBits + m.ChannelBits)
	if m.XORBankHash {
		c.xorMask = c.bankMask
	}
	return c, nil
}

// MustCompile is Compile, panicking on an invalid mapping (construction-time
// misuse).
func (m Mapping) MustCompile() Compiled {
	c, err := m.Compile()
	if err != nil {
		panic(err)
	}
	return c
}

// Mapping returns the mapping the compiled form was built from.
func (c Compiled) Mapping() Mapping { return c.m }

// Channels returns the number of channels the mapping addresses.
func (c Compiled) Channels() int { return 1 << c.m.ChannelBits }

// Ranks returns the number of ranks per channel.
func (c Compiled) Ranks() int { return 1 << c.m.RankBits }

// Banks returns the number of banks per rank.
func (c Compiled) Banks() int { return 1 << c.m.BankBits }

// Rows returns the number of rows per bank.
func (c Compiled) Rows() int { return 1 << c.m.RowBits }

// AddrBits returns the total number of mapped address bits.
func (c Compiled) AddrBits() int {
	return c.m.ColumnBits + c.m.BankBits + c.m.RowBits + c.m.RankBits + c.m.ChannelBits
}

// InRange reports whether addr is representable under the mapping (no bits
// above the mapped width). Decode masks such bits off; strict consumers (the
// trace decoder) reject the address instead.
func (c *Compiled) InRange(addr uint64) bool { return addr&^c.addrMask == 0 }

// Decode splits addr into coordinates: the allocation-free hot path.
func (c *Compiled) Decode(addr uint64) Coord {
	row := (addr >> c.rowShift) & c.rowMask
	return Coord{
		Column:  int(addr & c.colMask),
		Bank:    int(((addr >> c.bankShift) & c.bankMask) ^ (row & c.xorMask)),
		Row:     int(row),
		Rank:    int((addr >> c.rankShift) & c.rankMask),
		Channel: int((addr >> c.chanShift) & c.chanMask),
	}
}

// Route decodes only the shard-routing fields — channel, rank, hashed bank,
// row — returning them in registers. The replay demux calls this once per
// trace record; skipping the column and the Coord struct keeps the per-record
// cost to the four shift/mask extractions it actually needs.
func (c *Compiled) Route(addr uint64) (channel, rank, bank, row int) {
	r := (addr >> c.rowShift) & c.rowMask
	return int((addr >> c.chanShift) & c.chanMask),
		int((addr >> c.rankShift) & c.rankMask),
		int(((addr >> c.bankShift) & c.bankMask) ^ (r & c.xorMask)),
		int(r)
}

// Encode is the inverse of Decode. It panics when a coordinate exceeds its
// field width (the same construction-time misuse the uncompiled path
// rejected).
func (c *Compiled) Encode(co Coord) uint64 {
	check := func(v int, mask uint64, name string) uint64 {
		if v < 0 || uint64(v) > mask {
			panic(fmt.Sprintf("addrmap: %s value %d exceeds mask %#x", name, v, mask))
		}
		return uint64(v)
	}
	bank := check(co.Bank, c.bankMask, "bank") ^ (check(co.Row, c.rowMask, "row") & c.xorMask)
	return check(co.Column, c.colMask, "column") |
		bank<<c.bankShift |
		uint64(co.Row)<<c.rowShift |
		check(co.Rank, c.rankMask, "rank")<<c.rankShift |
		check(co.Channel, c.chanMask, "channel")<<c.chanShift
}

// Decode splits addr into coordinates. It panics on an invalid mapping
// (construction-time misuse). Convenience form: it validates and compiles on
// every call, so hot paths (the trace decoder, the replay demux) should
// Compile once and call Compiled.Decode instead.
func (m Mapping) Decode(addr uint64) Coord {
	c := m.MustCompile()
	return c.Decode(addr)
}

// Encode is the inverse of Decode, with the same convenience-form caveat:
// hot paths should hold a Compiled.
func (m Mapping) Encode(co Coord) uint64 {
	c := m.MustCompile()
	return c.Encode(co)
}

// RowScrambler is a keyed bijection over [0, Rows) standing in for the
// vendor's internal row remap. It uses an affine map r -> (a*r + b) mod Rows
// with gcd(a, Rows) = 1, which destroys external adjacency (externally
// consecutive rows land `a` apart internally) while staying invertible.
type RowScrambler struct {
	rows int
	a, b int
	inv  int
}

// NewRowScrambler returns a scrambler over [0, rows) keyed by seed.
func NewRowScrambler(rows int, seed uint64) *RowScrambler {
	if rows < 2 {
		panic(fmt.Sprintf("addrmap: scrambler needs >= 2 rows, got %d", rows))
	}
	// Pick an odd multiplier coprime with rows. For power-of-two row
	// counts (the universal case) any odd a works; otherwise search.
	a := int(seed%uint64(rows)) | 1
	for gcd(a, rows) != 1 {
		a += 2
		if a >= rows {
			a = 1
		}
	}
	b := int((seed >> 32) % uint64(rows))
	return &RowScrambler{rows: rows, a: a, b: b, inv: modInverse(a, rows)}
}

// Scramble maps an external row to its internal physical location.
func (s *RowScrambler) Scramble(row int) int {
	if row < 0 || row >= s.rows {
		panic(fmt.Sprintf("addrmap: row %d out of [0,%d)", row, s.rows))
	}
	return (s.a*row + s.b) % s.rows
}

// Unscramble maps an internal physical location back to its external row.
func (s *RowScrambler) Unscramble(phys int) int {
	if phys < 0 || phys >= s.rows {
		panic(fmt.Sprintf("addrmap: row %d out of [0,%d)", phys, s.rows))
	}
	d := phys - s.b
	d %= s.rows
	if d < 0 {
		d += s.rows
	}
	return d * s.inv % s.rows
}

// Rows returns the scrambler's domain size.
func (s *RowScrambler) Rows() int { return s.rows }

// ExternalGuessNeighbors returns the internal locations of the externally
// adjacent rows r±1 — what an MC-side mitigation actually refreshes when it
// assumes external adjacency. With a nontrivial scramble these are far from
// the true victims.
func (s *RowScrambler) ExternalGuessNeighbors(row int) (lo, hi int) {
	l, h := row-1, row+1
	if l < 0 {
		l += s.rows
	}
	if h >= s.rows {
		h -= s.rows
	}
	return s.Scramble(l), s.Scramble(h)
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// modInverse returns a^-1 mod n for gcd(a,n)=1 via the extended Euclid
// algorithm.
func modInverse(a, n int) int {
	t, newT := 0, 1
	r, newR := n, a
	for newR != 0 {
		q := r / newR
		t, newT = newT, t-q*newT
		r, newR = newR, r-q*newR
	}
	if r != 1 {
		panic(fmt.Sprintf("addrmap: %d not invertible mod %d", a, n))
	}
	if t < 0 {
		t += n
	}
	return t
}
