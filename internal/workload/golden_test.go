package workload

import (
	"encoding/binary"
	"hash/crc32"
	"io"
	"testing"

	"pride/internal/addrmap"
)

// goldenMappings are the geometries the golden stream CRCs are pinned
// under: pride-serve's 64-shard daemon mapping with the XOR bank hash, and
// a smaller mapping without it.
var goldenMappings = [2]string{
	"col=6 bank=3 row=13 rank=1 chan=2 xor=1",
	"col=6 bank=2 row=10 rank=0 chan=1 xor=0",
}

// goldenSeeds are the generator seeds of the golden streams.
var goldenSeeds = [2]uint64{1, 7}

// goldenRecords is the length of each pinned stream prefix.
const goldenRecords = 50000

// goldenCRCs pins the CRC-32C (over little-endian record bytes, the same
// fingerprint the replay demux computes) of the first goldenRecords records
// of every workload.All() spec, in the order goldenMappings × goldenSeeds.
// A workload's stream depends only on its RowHitRate, so specs sharing a
// hit rate share their CRCs. Every cache key, checkpoint key and committed
// trace derived from a generated workload rests on these streams: a
// generator change that moves any of them is a behaviour change, not an
// optimisation.
var goldenCRCs = map[string][4]uint32{
	"blender":   {0x8af05767, 0x79b9deaf, 0x56efbe7f, 0xeb3ea0d1},
	"bwaves":    {0x1b8ab995, 0x47f1f309, 0xeea8f6b2, 0x085a7f93},
	"cactuBSSN": {0x5435c43f, 0xe4f9932f, 0xc91c49df, 0x127145e2},
	"deepsjeng": {0xda653eaa, 0x80d4ceb8, 0x700b29e0, 0x196f4873},
	"exchange2": {0xa58b73a9, 0x5c194c01, 0xc59916f4, 0x2cbb880f},
	"gcc":       {0xa58b73a9, 0x5c194c01, 0xc59916f4, 0x2cbb880f},
	"imagick":   {0x508a9475, 0x174a6aae, 0x4bb7049a, 0xa028d8aa},
	"lbm":       {0x4541e151, 0xcca6830f, 0x831abfc1, 0x5ef87f41},
	"leela":     {0xa58b73a9, 0x5c194c01, 0xc59916f4, 0x2cbb880f},
	"mcf":       {0xc3aca7cb, 0x5bd0fe49, 0x46456775, 0x6ecb4cf4},
	"mix01":     {0xbdea7801, 0x1847fcc2, 0x205cfdee, 0x975f0833},
	"mix02":     {0xf771e8bf, 0x7abacc80, 0x2299e818, 0x40444d9a},
	"mix03":     {0x96963d6d, 0x859691e3, 0x986cdd93, 0xc46970f2},
	"mix04":     {0x5435c43f, 0xe4f9932f, 0xc91c49df, 0x127145e2},
	"mix05":     {0xe154e057, 0xa16bee4f, 0x1d439922, 0x3a79a26a},
	"mix06":     {0xb7ef568f, 0x2ead379b, 0x54fad083, 0x446c6185},
	"mix07":     {0xe154e057, 0xa16bee4f, 0x1d439922, 0x3a79a26a},
	"mix08":     {0x58ca406e, 0xa24e4390, 0x5eb37578, 0x2fad317c},
	"mix09":     {0x7ac450c7, 0x673f1dc8, 0x69e895b5, 0xbca157e0},
	"mix10":     {0x97fdf11f, 0xce4b8035, 0xbf878f42, 0x11b8de88},
	"mix11":     {0xf771e8bf, 0x7abacc80, 0x2299e818, 0x40444d9a},
	"mix12":     {0xbdea7801, 0x1847fcc2, 0x205cfdee, 0x975f0833},
	"mix13":     {0x8af05767, 0x79b9deaf, 0x56efbe7f, 0xeb3ea0d1},
	"mix14":     {0x8af05767, 0x79b9deaf, 0x56efbe7f, 0xeb3ea0d1},
	"mix15":     {0xf771e8bf, 0x7abacc80, 0x2299e818, 0x40444d9a},
	"mix16":     {0x02dd5d74, 0xb3c9e79e, 0x6b2053d3, 0xd37d54c1},
	"mix17":     {0x2a5e75e5, 0xb3c6335e, 0x4fe15952, 0x48ed0337},
	"nab":       {0x5435c43f, 0xe4f9932f, 0xc91c49df, 0x127145e2},
	"namd":      {0xbdea7801, 0x1847fcc2, 0x205cfdee, 0x975f0833},
	"parest":    {0x8af05767, 0x79b9deaf, 0x56efbe7f, 0xeb3ea0d1},
	"povray":    {0x5435c43f, 0xe4f9932f, 0xc91c49df, 0x127145e2},
	"roms":      {0xbdea7801, 0x1847fcc2, 0x205cfdee, 0x975f0833},
	"wrf":       {0x508a9475, 0x174a6aae, 0x4bb7049a, 0xa028d8aa},
	"xz":        {0xc2727ad8, 0x42518d60, 0x4b353790, 0xc7938a5e},
}

// goldenStreamVersion is the StreamVersion goldenCRCs were computed at. A
// deliberate stream change, such as making AddrSource emit row misses only,
// recomputes goldenCRCs and bumps both, so the keys pride-serve derives
// from a generated spec change with the stream: a daemon's stored results
// for the old stream become unreachable instead of being served.
const goldenStreamVersion = 1

// streamCRC drains src in batches of the given size and returns the
// CRC-32C of its records' little-endian bytes.
func streamCRC(t *testing.T, src *AddrSource, batch int) uint32 {
	t.Helper()
	tab := crc32.MakeTable(crc32.Castagnoli)
	buf := make([]uint64, batch)
	le := make([]byte, 8*batch)
	var crc uint32
	for {
		n, err := src.ReadBatch(buf)
		for i, a := range buf[:n] {
			binary.LittleEndian.PutUint64(le[8*i:], a)
		}
		crc = crc32.Update(crc, tab, le[:8*n])
		if err == io.EOF {
			return crc
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestAddrSourceGoldenStreams(t *testing.T) {
	if StreamVersion != goldenStreamVersion {
		t.Fatalf("StreamVersion = %d, but goldenCRCs pin the streams of version %d: recompute them with the version", StreamVersion, goldenStreamVersion)
	}
	all := All()
	if len(all) != len(goldenCRCs) {
		t.Fatalf("%d workloads, %d golden entries", len(all), len(goldenCRCs))
	}
	// Each stream is drained at a different batch size, so the table also
	// pins batch-size invariance across every spec: a batch boundary may
	// never shift a draw.
	batches := [4]int{4096, 61, 1, 50000}
	for _, spec := range all {
		want, ok := goldenCRCs[spec.Name]
		if !ok {
			t.Errorf("%s: no golden entry", spec.Name)
			continue
		}
		for mi, ms := range goldenMappings {
			m, err := addrmap.ParseMapping(ms)
			if err != nil {
				t.Fatal(err)
			}
			for si, seed := range goldenSeeds {
				k := 2*mi + si
				got := streamCRC(t, NewAddrSource(spec, m, goldenRecords, seed), batches[k])
				if got != want[k] {
					t.Errorf("%s under %q seed %d: crc %#08x, want %#08x", spec.Name, ms, seed, got, want[k])
				}
			}
		}
	}
}
