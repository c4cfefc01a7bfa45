package trace

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"

	"pride/internal/addrmap"
	"pride/internal/rng"
)

func testMapping() addrmap.Mapping {
	return addrmap.Mapping{ColumnBits: 6, BankBits: 3, RowBits: 12, RankBits: 1, ChannelBits: 2, XORBankHash: true}
}

func randomAddrs(m addrmap.Mapping, n int, seed uint64) []uint64 {
	c := m.MustCompile()
	r := rng.New(seed)
	addrs := make([]uint64, n)
	for i := range addrs {
		addrs[i] = c.Encode(addrmap.Coord{
			Channel: r.Intn(c.Channels()),
			Rank:    r.Intn(c.Ranks()),
			Bank:    r.Intn(c.Banks()),
			Row:     r.Intn(c.Rows()),
		})
	}
	return addrs
}

func TestBinaryRoundTrip(t *testing.T) {
	m := testMapping()
	for _, n := range []int{0, 1, 7, 4096, 4097, 10000} {
		addrs := randomAddrs(m, n, uint64(n)+1)
		var buf bytes.Buffer
		if err := WriteAll(&buf, m, addrs); err != nil {
			t.Fatalf("n=%d: write: %v", n, err)
		}
		if got, want := buf.Len(), HeaderSize+n*RecordSize; got != want {
			t.Fatalf("n=%d: encoded %d bytes, want %d", n, got, want)
		}
		gotM, got, err := ReadAll(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("n=%d: read: %v", n, err)
		}
		if gotM != m {
			t.Fatalf("n=%d: mapping %+v, want %+v", n, gotM, m)
		}
		if len(got) != len(addrs) {
			t.Fatalf("n=%d: %d records, want %d", n, len(got), len(addrs))
		}
		for i := range got {
			if got[i] != addrs[i] {
				t.Fatalf("n=%d: record %d = %#x, want %#x", n, i, got[i], addrs[i])
			}
		}
	}
}

func TestReaderSmallBatches(t *testing.T) {
	m := testMapping()
	addrs := randomAddrs(m, 1000, 3)
	var buf bytes.Buffer
	if err := WriteAll(&buf, m, addrs); err != nil {
		t.Fatal(err)
	}
	tr, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Count() != 1000 {
		t.Fatalf("Count() = %d", tr.Count())
	}
	var got []uint64
	batch := make([]uint64, 7)
	for {
		n, err := tr.ReadBatch(batch)
		got = append(got, batch[:n]...)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(got) != len(addrs) {
		t.Fatalf("%d records, want %d", len(got), len(addrs))
	}
	for i := range got {
		if got[i] != addrs[i] {
			t.Fatalf("record %d = %#x, want %#x", i, got[i], addrs[i])
		}
	}
	// Repeated reads after EOF keep returning EOF.
	if n, err := tr.ReadBatch(batch); n != 0 || err != io.EOF {
		t.Fatalf("post-EOF ReadBatch = (%d, %v)", n, err)
	}
}

func TestReaderRejects(t *testing.T) {
	m := testMapping()
	addrs := randomAddrs(m, 16, 5)
	var buf bytes.Buffer
	if err := WriteAll(&buf, m, addrs); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()

	corrupt := func(mutate func(b []byte) []byte) error {
		b := mutate(append([]byte(nil), valid...))
		tr, err := NewReader(bytes.NewReader(b))
		if err != nil {
			return err
		}
		_, err = Drain(tr, nil)
		return err
	}
	cases := map[string]func(b []byte) []byte{
		"bad magic":     func(b []byte) []byte { b[0] = 'X'; return b },
		"bad version":   func(b []byte) []byte { b[8] = 99; return b },
		"bad flags":     func(b []byte) []byte { b[17] = 0x80; return b },
		"reserved":      func(b []byte) []byte { b[20] = 1; return b },
		"bad mapping":   func(b []byte) []byte { b[14] = 0; return b }, // row bits = 0
		"torn header":   func(b []byte) []byte { return b[:HeaderSize-1] },
		"torn tail":     func(b []byte) []byte { return b[:len(b)-3] },
		"missing rec":   func(b []byte) []byte { return b[:len(b)-RecordSize] },
		"trailing data": func(b []byte) []byte { return append(b, 0xAA) },
		"out of range": func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[HeaderSize:], 1<<63)
			return b
		},
	}
	for name, mutate := range cases {
		if err := corrupt(mutate); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestReadBatchZeroAlloc(t *testing.T) {
	m := testMapping()
	addrs := randomAddrs(m, 20000, 11)
	var buf bytes.Buffer
	if err := WriteAll(&buf, m, addrs); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	batch := make([]uint64, 512)
	var rd bytes.Reader
	rd.Reset(raw)
	tr, err := NewReader(&rd)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		rd.Reset(raw)
		if err := tr.Reset(&rd); err != nil {
			t.Fatal(err)
		}
		for {
			_, err := tr.ReadBatch(batch)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
		}
	})
	// The 64K buffer is allocated once by NewReader; Reset reuses it, so a
	// full header-validate-and-decode cycle must be allocation-free.
	if allocs != 0 {
		t.Fatalf("full decode through a reused Reader allocated %v times; steady path is not allocation-free", allocs)
	}
}

func TestReaderReset(t *testing.T) {
	first := testMapping()
	second := addrmap.Mapping{ColumnBits: 4, BankBits: 2, RowBits: 10, RankBits: 1, ChannelBits: 1}
	firstAddrs := randomAddrs(first, 100, 3)
	secondAddrs := randomAddrs(second, 7, 4)
	var firstBuf, secondBuf bytes.Buffer
	if err := WriteAll(&firstBuf, first, firstAddrs); err != nil {
		t.Fatal(err)
	}
	if err := WriteAll(&secondBuf, second, secondAddrs); err != nil {
		t.Fatal(err)
	}

	tr, err := NewReader(bytes.NewReader(firstBuf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Drain(tr, nil); err != nil {
		t.Fatal(err)
	}

	// A failed Reset leaves the Reader unusable but recoverable: a later
	// successful Reset must behave exactly like a fresh NewReader.
	if err := tr.Reset(bytes.NewReader([]byte("NOTATRACE, not even close"))); err == nil {
		t.Fatal("Reset accepted a corrupt header")
	}
	if err := tr.Reset(bytes.NewReader(secondBuf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if got := tr.Mapping(); got != second {
		t.Fatalf("mapping after Reset = %+v, want %+v", got, second)
	}
	if got, want := tr.Count(), uint64(len(secondAddrs)); got != want {
		t.Fatalf("count after Reset = %d, want %d", got, want)
	}
	got, err := Drain(tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NewReader(bytes.NewReader(secondBuf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	want, err := Drain(fresh, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("Reset decode yielded %d records, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("record %d after Reset = %#x, want %#x", i, got[i], want[i])
		}
	}
}

func TestTextRoundTrip(t *testing.T) {
	m := testMapping()
	addrs := randomAddrs(m, 100, 21)
	var buf bytes.Buffer
	if err := WriteText(&buf, m, addrs); err != nil {
		t.Fatal(err)
	}
	gotM, got, err := ReadText(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if gotM != m {
		t.Fatalf("mapping %+v, want %+v", gotM, m)
	}
	if len(got) != len(addrs) {
		t.Fatalf("%d records, want %d", len(got), len(addrs))
	}
	for i := range got {
		if got[i] != addrs[i] {
			t.Fatalf("record %d = %d, want %d", i, got[i], addrs[i])
		}
	}
}

func TestTextRejects(t *testing.T) {
	bad := map[string]string{
		"missing mapping":    "act: 1 2 3\n",
		"act before mapping": "act: 1\nmapping: col=6 bank=3 row=12 rank=1 chan=2 xor=1\n",
		"duplicate mapping": "mapping: col=6 bank=3 row=12 rank=1 chan=2 xor=1\n" +
			"mapping: col=6 bank=3 row=12 rank=1 chan=2 xor=1\n",
		"unknown key": "mapping: col=6 bank=3 row=12 rank=1 chan=2 xor=1\nrows: 1 2\n",
		"bad address": "mapping: col=6 bank=3 row=12 rank=1 chan=2 xor=1\nact: -5\n",
		"out of range address": "mapping: col=6 bank=3 row=12 rank=1 chan=2 xor=1\n" +
			"act: 99999999999\n",
		"no colon":    "mapping col=6 bank=3 row=12 rank=1 chan=2 xor=1\n",
		"bad mapping": "mapping: col=6 bank=3 row=0 rank=1 chan=2 xor=1\n",
	}
	for name, s := range bad {
		if _, _, err := ReadText(bytes.NewReader([]byte(s))); err == nil {
			t.Errorf("%s: accepted %q", name, s)
		}
	}
	// Comments and blank lines are fine; an empty trace (mapping only) is fine.
	ok := "# a trace\n\nmapping: col=6 bank=3 row=12 rank=1 chan=2 xor=1\n"
	if _, addrs, err := ReadText(bytes.NewReader([]byte(ok))); err != nil || len(addrs) != 0 {
		t.Fatalf("empty trace: addrs=%v err=%v", addrs, err)
	}
}

func TestTextToBinaryConversion(t *testing.T) {
	// The two forms agree: text-decoded records re-encoded as binary decode
	// back to the same stream.
	m := testMapping()
	addrs := randomAddrs(m, 64, 31)
	var text bytes.Buffer
	if err := WriteText(&text, m, addrs); err != nil {
		t.Fatal(err)
	}
	tm, taddrs, err := ReadText(bytes.NewReader(text.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var bin bytes.Buffer
	if err := WriteAll(&bin, tm, taddrs); err != nil {
		t.Fatal(err)
	}
	bm, baddrs, err := ReadAll(bytes.NewReader(bin.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if bm != m || len(baddrs) != len(addrs) {
		t.Fatalf("conversion changed the trace: %+v %d", bm, len(baddrs))
	}
	for i := range baddrs {
		if baddrs[i] != addrs[i] {
			t.Fatalf("record %d = %#x, want %#x", i, baddrs[i], addrs[i])
		}
	}
}

func TestWriterCountEnforced(t *testing.T) {
	m := testMapping()
	var buf bytes.Buffer
	tw, err := NewWriter(&buf, m, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := tw.WriteBatch([]uint64{0, 1, 2}); err == nil {
		t.Fatal("over-count WriteBatch accepted")
	}
	if err := tw.WriteBatch([]uint64{0}); err != nil {
		t.Fatal(err)
	}
	if err := tw.Close(); err == nil {
		t.Fatal("short Close accepted")
	}
	// Out-of-range address rejected at write time.
	tw2, err := NewWriter(&buf, m, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := tw2.WriteBatch([]uint64{1 << 63}); err == nil {
		t.Fatal("out-of-range address accepted")
	}
}

func TestSliceSource(t *testing.T) {
	m := testMapping()
	addrs := randomAddrs(m, 10, 41)
	src := NewSliceSource(m, addrs)
	if src.Mapping() != m {
		t.Fatal("mapping mismatch")
	}
	got, err := Drain(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Fatalf("%d records", len(got))
	}
	if _, err := Drain(src, nil); err != nil {
		t.Fatal(err)
	}
	src.Reset()
	again, err := Drain(src, nil)
	if err != nil || len(again) != 10 {
		t.Fatalf("after Reset: %d records, %v", len(again), err)
	}
}

func BenchmarkReadBatch(b *testing.B) {
	m := testMapping()
	addrs := randomAddrs(m, 1<<17, 7)
	var buf bytes.Buffer
	if err := WriteAll(&buf, m, addrs); err != nil {
		b.Fatal(err)
	}
	raw := buf.Bytes()
	batch := make([]uint64, 4096)
	var rd bytes.Reader
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd.Reset(raw)
		tr, err := NewReader(&rd)
		if err != nil {
			b.Fatal(err)
		}
		for {
			_, err := tr.ReadBatch(batch)
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
		}
	}
}

func TestReaderErrorsCarryByteOffset(t *testing.T) {
	m := addrmap.Mapping{ColumnBits: 3, BankBits: 2, RowBits: 4}
	var buf bytes.Buffer
	addrs := []uint64{1, 2, 3, 4, 5}
	if err := WriteAll(&buf, m, addrs); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	// Corrupt record 3 so it has bits above the 9-bit mapping; its byte
	// offset is header + 3 records.
	bad := append([]byte(nil), good...)
	wantOff := HeaderSize + 3*RecordSize
	binary.LittleEndian.PutUint64(bad[wantOff:], 1<<40)
	tr, err := NewReader(bytes.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	_, err = Drain(tr, nil)
	if err == nil {
		t.Fatal("corrupt record decoded cleanly")
	}
	for _, want := range []string{"record 3", fmt.Sprintf("byte offset %d", wantOff)} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}

	// A torn tail reports where the stream ended.
	tr, err = NewReader(bytes.NewReader(good[:wantOff]))
	if err != nil {
		t.Fatal(err)
	}
	_, err = Drain(tr, nil)
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("byte offset %d", wantOff)) {
		t.Errorf("torn-tail error %q does not carry byte offset %d", err, wantOff)
	}

	// Trailing data reports the offset where the trace should have ended.
	trailing := append(append([]byte(nil), good...), 0xFF)
	tr, err = NewReader(bytes.NewReader(trailing))
	if err != nil {
		t.Fatal(err)
	}
	endOff := HeaderSize + len(addrs)*RecordSize
	_, err = Drain(tr, nil)
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("byte offset %d", endOff)) {
		t.Errorf("trailing-data error %q does not carry byte offset %d", err, endOff)
	}
}

// readOutcome is what draining a binary trace yields: the mapping, the
// records, and the error text of the header or of the first failing batch.
type readOutcome struct {
	mapping addrmap.Mapping
	records []uint64
	err     string
}

func readThrough(r io.Reader) readOutcome {
	tr, err := NewReader(r)
	if err != nil {
		return readOutcome{err: err.Error()}
	}
	out := readOutcome{mapping: tr.Mapping()}
	batch := make([]uint64, 4096)
	for {
		n, err := tr.ReadBatch(batch)
		out.records = append(out.records, batch[:n]...)
		if err == io.EOF {
			return out
		}
		if err != nil {
			out.err = err.Error()
			// The error sticks: the reader is not resumed past it.
			if n2, err2 := tr.ReadBatch(batch); n2 != 0 || err2 == nil || err2.Error() != out.err {
				out.err += fmt.Sprintf(" | then (%d, %v)", n2, err2)
			}
			return out
		}
	}
}

// TestReadBatchIndependentOfReadChunks decodes the same bytes through
// readers that hand them over one byte at a time, in halves, or with the
// last data and io.EOF together, and checks that the records and the
// error text equal a plain bytes.Reader's: valid traces across a batch
// boundary, a stream that ends inside a record and inside the header,
// bytes after the last record, and a record outside the mapping.
func TestReadBatchIndependentOfReadChunks(t *testing.T) {
	m := testMapping()
	encode := func(addrs []uint64) []byte {
		var buf bytes.Buffer
		if err := WriteAll(&buf, m, addrs); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	long := encode(randomAddrs(m, 4096+37, 17))
	short := encode(randomAddrs(m, 9, 19))
	badRec := append([]byte(nil), long...)
	binary.LittleEndian.PutUint64(badRec[HeaderSize+4100*RecordSize:], 1<<40)
	inputs := map[string][]byte{
		"empty trace":          encode(nil),
		"short trace":          short,
		"two batches":          long,
		"ends inside a record": long[:len(long)-5],
		"ends after a record":  long[:len(long)-RecordSize],
		"ends inside header":   long[:HeaderSize-3],
		"no input":             nil,
		"trailing bytes":       append(append([]byte(nil), short...), 1, 2, 3),
		"trailing byte, long":  append(append([]byte(nil), long...), 0xAA),
		"record out of range":  badRec,
	}
	wrappers := map[string]func(io.Reader) io.Reader{
		"OneByteReader": iotest.OneByteReader,
		"HalfReader":    iotest.HalfReader,
		"DataErrReader": iotest.DataErrReader,
	}
	for _, name := range []string{"empty trace", "short trace", "two batches"} {
		if got := readThrough(bytes.NewReader(inputs[name])); got.err != "" {
			t.Fatalf("%s: %s", name, got.err)
		}
	}
	for name, data := range inputs {
		want := readThrough(bytes.NewReader(data))
		for wname, wrap := range wrappers {
			got := readThrough(wrap(bytes.NewReader(data)))
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s through %s: %d records, error %q; bytes.Reader: %d records, error %q",
					name, wname, len(got.records), got.err, len(want.records), want.err)
			}
		}
	}
	// The expected texts, once, from the plain reader.
	for name, want := range map[string]string{
		"ends inside a record": fmt.Sprintf("trace: torn tail: header declares %d records, stream ends after %d (byte offset %d)", 4096+37, 4096+36, HeaderSize+(4096+36)*RecordSize),
		"ends inside header":   "trace: reading header: unexpected EOF",
		"trailing bytes":       fmt.Sprintf("trace: trailing data after 9 declared records (byte offset %d)", HeaderSize+9*RecordSize),
		"record out of range":  fmt.Sprintf("trace: record 4100 (byte offset %d): address 0x10000000000 has bits outside the 24-bit mapping", HeaderSize+4100*RecordSize),
	} {
		if got := readThrough(bytes.NewReader(inputs[name])); got.err != want {
			t.Errorf("%s: error %q, want %q", name, got.err, want)
		}
	}
	if got := readThrough(bytes.NewReader(inputs["record out of range"])); len(got.records) != 4100 {
		t.Errorf("record out of range: %d records before the error, want 4100", len(got.records))
	}
}

// TestByteCopyPathsMatchRecordView runs the Reader and Writer through the
// paths a big-endian host takes, which decode and encode each record
// through encoding/binary instead of viewing the batch's memory, and checks
// that they read and write the same bytes, records and errors.
func TestByteCopyPathsMatchRecordView(t *testing.T) {
	if !littleEndian {
		t.Skip("the host takes the byte-copy paths already")
	}
	m := testMapping()
	addrs := randomAddrs(m, 3*readerBufSize/RecordSize+5, 23)
	var view bytes.Buffer
	if err := WriteAll(&view, m, addrs); err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), view.Bytes()...)
	binary.LittleEndian.PutUint64(bad[HeaderSize+9000*RecordSize:], 1<<40)
	inputs := [][]byte{view.Bytes(), view.Bytes()[:view.Len()-3], bad, append(append([]byte(nil), view.Bytes()...), 7)}
	want := make([]readOutcome, len(inputs))
	for i, data := range inputs {
		want[i] = readThrough(iotest.HalfReader(bytes.NewReader(data)))
	}

	littleEndian = false
	defer func() { littleEndian = true }()
	var copied bytes.Buffer
	if err := WriteAll(&copied, m, addrs); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(copied.Bytes(), view.Bytes()) {
		t.Fatal("the byte-copy Writer encodes the trace differently")
	}
	for i, data := range inputs {
		if got := readThrough(iotest.HalfReader(bytes.NewReader(data))); !reflect.DeepEqual(got, want[i]) {
			t.Errorf("input %d: byte-copy Reader gives %d records, error %q; record view: %d records, error %q",
				i, len(got.records), got.err, len(want[i].records), want[i].err)
		}
	}
}
