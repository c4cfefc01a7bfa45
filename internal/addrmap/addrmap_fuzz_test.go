package addrmap

import (
	"fmt"
	"strings"
	"testing"

	"pride/internal/rng"
)

// FuzzParseMapping throws arbitrary text at the mapping parser, the trust
// boundary of trace headers and the -mapping flag. Parsing must never
// panic. An accepted mapping must re-parse from its String() to itself,
// and its compiled form must round-trip random in-range coordinates
// through Encode, Decode and Route and reject every out-of-range field:
// the masked/extract check of a DRAM address converter.
func FuzzParseMapping(f *testing.F) {
	for _, s := range []string{
		DefaultDDR5().String(),
		"col=4 bank=2 row=10 rank=1 chan=1 xor=1",
		"col=6,bank=4,row=14,rank=1,chan=2,xor=1",
		"col=0 bank=0 row=62 rank=0 chan=0 xor=0",
		"col=0 bank=0 row=1 rank=0 chan=0 xor=0",
		"col=13 bank=5 row=17 rank=0 chan=0",
		"col=4611686018427387904 bank=4611686018427387904 row=4611686018427387904 rank=4611686018427387904 chan=0 xor=0",
		"col=+3 bank=01 row=-0 rank=0 chan=0 xor=1",
		"",
	} {
		f.Add(s, uint64(1))
	}
	f.Fuzz(func(t *testing.T, s string, seed uint64) {
		m, err := ParseMapping(s)
		if err != nil {
			return
		}
		if again, err := ParseMapping(m.String()); err != nil || again != m {
			t.Fatalf("%q parsed to %+v, whose String %q re-parses to %+v, %v", s, m, m.String(), again, err)
		}
		c, err := m.Compile()
		if err != nil {
			t.Fatalf("accepted mapping %+v does not compile: %v", m, err)
		}
		widths := []struct {
			name string
			bits int
			set  func(*Coord, int)
		}{
			{"column", m.ColumnBits, func(co *Coord, v int) { co.Column = v }},
			{"bank", m.BankBits, func(co *Coord, v int) { co.Bank = v }},
			{"row", m.RowBits, func(co *Coord, v int) { co.Row = v }},
			{"rank", m.RankBits, func(co *Coord, v int) { co.Rank = v }},
			{"channel", m.ChannelBits, func(co *Coord, v int) { co.Channel = v }},
		}
		r := rng.New(seed)
		for i := 0; i < 32; i++ {
			var co Coord
			for _, w := range widths {
				w.set(&co, int(r.Uint64()&(1<<w.bits-1)))
			}
			addr := c.Encode(co)
			if !c.InRange(addr) {
				t.Fatalf("%+v: Encode(%+v) = %#x is out of range", m, co, addr)
			}
			if got := c.Decode(addr); got != co {
				t.Fatalf("%+v: Decode(Encode(%+v)) = %+v", m, co, got)
			}
			if got := m.Decode(addr); got != co {
				t.Fatalf("%+v: uncompiled Decode(Encode(%+v)) = %+v", m, co, got)
			}
			if ch, rk, bk, row := c.Route(addr); ch != co.Channel || rk != co.Rank || bk != co.Bank || row != co.Row {
				t.Fatalf("%+v: Route(Encode(%+v)) = (%d, %d, %d, %d)", m, co, ch, rk, bk, row)
			}
			for _, w := range widths {
				for _, v := range []int{-1, 1 << w.bits} {
					bad := co
					w.set(&bad, v)
					if msg := encodePanic(&c, bad); !strings.Contains(msg, w.name) {
						t.Fatalf("%+v: Encode(%+v) with %s out of range: panic %q", m, bad, w.name, msg)
					}
				}
			}
		}
	})
}

// encodePanic returns the panic message Encode raises for co, or "" when
// it returns normally.
func encodePanic(c *Compiled, co Coord) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	c.Encode(co)
	return ""
}
