package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"unsafe"

	"pride/internal/addrmap"
)

// Binary trace layout (all integers little-endian):
//
//	offset  size  field
//	0       8     magic "PRIDEACT"
//	8       4     format version (currently 1)
//	12      1     mapping column bits
//	13      1     mapping bank bits
//	14      1     mapping row bits
//	15      1     mapping rank bits
//	16      1     mapping channel bits
//	17      1     flags: bit 0 = XOR bank hash; other bits must be zero
//	18      6     reserved, must be zero
//	24      8     record count
//	32      8×N   records: one physical address per ACT
//
// The header is self-describing (the mapping travels with the records), the
// count is declared up front so a torn tail is detectable, and every record
// must be representable under the mapping — the decoder rejects anything
// else, in the same fail-loudly spirit as patterns.ReadTrace.

// Magic identifies a binary ACT trace; format sniffers compare the first
// eight bytes against it.
const Magic = "PRIDEACT"

// Version is the binary format version this package reads and writes.
const Version = 1

// HeaderSize is the fixed size of the binary trace header in bytes.
const HeaderSize = 32

// RecordSize is the fixed size of one ACT record in bytes.
const RecordSize = 8

var errEOF = io.EOF

// littleEndian reports whether the host lays a uint64 out as its
// little-endian encoding, the record layout of the binary format.
var littleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// RecordBytes returns the binary encoding of recs — 8 little-endian bytes
// per record, in order — as a view of recs' own memory, and true. Reading
// the view reads the records, and writing it writes them. On a big-endian
// host the memory is not that encoding: RecordBytes returns nil, false,
// and the caller encodes through encoding/binary instead.
func RecordBytes(recs []uint64) ([]byte, bool) {
	if !littleEndian {
		return nil, false
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(recs))), len(recs)*RecordSize), true
}

// Reader streams records from a binary ACT trace. It reads whole records
// straight into the caller's batch and decodes with zero allocations; feed
// it batches via ReadBatch and reuse the batch slice across calls. Reader
// implements Source.
type Reader struct {
	r        io.Reader
	compiled addrmap.Compiled
	count    uint64
	read     uint64
	// buf stages the header, the trailing-data probe and, on a big-endian
	// host, the record bytes.
	buf  []byte
	err  error // the first decode error; every later ReadBatch returns it
	done bool  // trailing-data check performed
}

// readerBufSize is the Writer's buffer, and the Reader's on a big-endian
// host: large enough that the underlying reads and writes amortize to
// nothing, small enough to stay cache-friendly.
const readerBufSize = 64 * 1024

// NewReader reads and validates the binary header from r and returns a
// Reader positioned at the first record. It rejects a bad magic, an
// unsupported version, nonzero reserved bytes or flags, and a mapping that
// does not Validate.
func NewReader(r io.Reader) (*Reader, error) {
	size := HeaderSize
	if !littleEndian {
		size = readerBufSize
	}
	tr := &Reader{buf: make([]byte, size)}
	if err := tr.Reset(r); err != nil {
		return nil, err
	}
	return tr, nil
}

// Reset repositions tr at the first record of a new trace read from r,
// validating its header exactly as NewReader does. The internal buffer is
// reused, so a long-running consumer can decode any number of traces through
// one Reader with zero further allocations. On error tr is left unusable
// until a subsequent successful Reset.
func (tr *Reader) Reset(r io.Reader) error {
	*tr = Reader{buf: tr.buf}
	hdr := tr.buf[:HeaderSize]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return fmt.Errorf("trace: reading header: %v", err)
	}
	if string(hdr[0:8]) != Magic {
		return fmt.Errorf("trace: bad magic %q, want %q", hdr[0:8], Magic)
	}
	if v := binary.LittleEndian.Uint32(hdr[8:12]); v != Version {
		return fmt.Errorf("trace: unsupported format version %d, want %d", v, Version)
	}
	m := addrmap.Mapping{
		ColumnBits:  int(hdr[12]),
		BankBits:    int(hdr[13]),
		RowBits:     int(hdr[14]),
		RankBits:    int(hdr[15]),
		ChannelBits: int(hdr[16]),
	}
	switch hdr[17] {
	case 0:
	case 1:
		m.XORBankHash = true
	default:
		return fmt.Errorf("trace: unknown flag bits %#x", hdr[17])
	}
	for _, b := range hdr[18:24] {
		if b != 0 {
			return fmt.Errorf("trace: reserved header bytes are not zero")
		}
	}
	compiled, err := m.Compile()
	if err != nil {
		return fmt.Errorf("trace: header mapping: %v", err)
	}
	tr.r = r
	tr.compiled = compiled
	tr.count = binary.LittleEndian.Uint64(hdr[24:32])
	return nil
}

// Mapping returns the address mapping declared in the header.
func (tr *Reader) Mapping() addrmap.Mapping { return tr.compiled.Mapping() }

// offset returns the byte offset of the next undecoded record: where in the
// stream a decode error is located. Multi-GB traces make "record N" alone
// useless for dd/xxd forensics, so every record-level error carries both the
// record index and this offset.
func (tr *Reader) offset() uint64 { return HeaderSize + tr.read*RecordSize }

// Count returns the record count declared in the header.
func (tr *Reader) Count() uint64 { return tr.count }

// ReadBatch implements Source: it fills dst with up to len(dst) records and
// returns how many it wrote. At the end of the stream it verifies that
// exactly the declared count was present — a torn tail (fewer bytes than
// declared) and trailing data (more) are both errors — and returns io.EOF.
// After an error every later call returns the same error.
func (tr *Reader) ReadBatch(dst []uint64) (int, error) {
	if tr.err != nil {
		return 0, tr.err
	}
	if tr.read == tr.count {
		if err := tr.checkTrailing(); err != nil {
			tr.err = err
			return 0, err
		}
		return 0, io.EOF
	}
	if left := tr.count - tr.read; uint64(len(dst)) > left {
		dst = dst[:left]
	}
	n := 0
	for n < len(dst) {
		k, err := tr.readRecords(dst[n:])
		// The records that arrived whole are checked before a read error
		// is reported, so a bad record ahead of a torn tail is named first.
		if i := outOfRange(&tr.compiled, dst[n:n+k]); i >= 0 {
			tr.read += uint64(i)
			tr.err = fmt.Errorf("trace: record %d (byte offset %d): address %#x has bits outside the %d-bit mapping",
				tr.read, tr.offset(), dst[n+i], tr.compiled.AddrBits())
			return n + i, tr.err
		}
		tr.read += uint64(k)
		n += k
		switch {
		case err == io.EOF || err == io.ErrUnexpectedEOF:
			tr.err = fmt.Errorf("trace: torn tail: header declares %d records, stream ends after %d (byte offset %d)",
				tr.count, tr.read, tr.offset())
		case err != nil:
			tr.err = fmt.Errorf("trace: reading record %d (byte offset %d): %v", tr.read, tr.offset(), err)
		}
		if tr.err != nil {
			return n, tr.err
		}
	}
	return n, nil
}

// readRecords reads the next len(dst) records into dst and returns how
// many it wrote: all of them, or on a read error the ones that arrived
// whole. On a little-endian host the bytes land in dst itself; on a
// big-endian host they are decoded from buf, at most a buffer per call.
func (tr *Reader) readRecords(dst []uint64) (int, error) {
	if b, ok := RecordBytes(dst); ok {
		m, err := io.ReadFull(tr.r, b)
		return m / RecordSize, err
	}
	if room := len(tr.buf) / RecordSize; len(dst) > room {
		dst = dst[:room]
	}
	b := tr.buf[:len(dst)*RecordSize]
	m, err := io.ReadFull(tr.r, b)
	k := m / RecordSize
	for i := range dst[:k] {
		dst[i] = binary.LittleEndian.Uint64(b[i*RecordSize:])
	}
	return k, err
}

// outOfRange returns the index of the first record with bits outside the
// mapping, or -1 when there is none. One OR over the batch clears a whole
// batch at once; only a batch that fails it is searched.
func outOfRange(m *addrmap.Compiled, recs []uint64) int {
	var all uint64
	for _, addr := range recs {
		all |= addr
	}
	if m.InRange(all) {
		return -1
	}
	for i, addr := range recs {
		if !m.InRange(addr) {
			return i
		}
	}
	return -1
}

// checkTrailing verifies nothing follows the declared records. The Reader
// never reads past the record it needs, so one more byte from the stream
// tells whether anything does.
func (tr *Reader) checkTrailing() error {
	if tr.done {
		return nil
	}
	tr.done = true
	m, err := tr.r.Read(tr.buf[:1])
	if m > 0 {
		return fmt.Errorf("trace: trailing data after %d declared records (byte offset %d)", tr.count, tr.offset())
	}
	if err != nil && err != io.EOF {
		return fmt.Errorf("trace: reading past record %d (byte offset %d): %v", tr.read, tr.offset(), err)
	}
	return nil
}

// Writer emits a binary ACT trace. The record count is declared up front
// (NewWriter writes the complete header immediately, so the output never
// needs seeking); Close fails if the appended records don't match it.
type Writer struct {
	w       *bufio.Writer
	m       addrmap.Compiled
	count   uint64
	written uint64
}

// NewWriter writes the header for a trace of exactly count records under
// mapping m and returns a Writer for appending them.
func NewWriter(w io.Writer, m addrmap.Mapping, count uint64) (*Writer, error) {
	compiled, err := m.Compile()
	if err != nil {
		return nil, fmt.Errorf("trace: %v", err)
	}
	var hdr [HeaderSize]byte
	copy(hdr[0:8], Magic)
	binary.LittleEndian.PutUint32(hdr[8:12], Version)
	hdr[12] = uint8(m.ColumnBits)
	hdr[13] = uint8(m.BankBits)
	hdr[14] = uint8(m.RowBits)
	hdr[15] = uint8(m.RankBits)
	hdr[16] = uint8(m.ChannelBits)
	if m.XORBankHash {
		hdr[17] = 1
	}
	binary.LittleEndian.PutUint64(hdr[24:32], count)
	bw := bufio.NewWriterSize(w, readerBufSize)
	if _, err := bw.Write(hdr[:]); err != nil {
		return nil, fmt.Errorf("trace: writing header: %v", err)
	}
	return &Writer{w: bw, m: compiled, count: count}, nil
}

// WriteBatch appends records. Every address must be representable under the
// mapping, and the total may not exceed the declared count.
func (tw *Writer) WriteBatch(addrs []uint64) error {
	if tw.written+uint64(len(addrs)) > tw.count {
		return fmt.Errorf("trace: writing past the declared count of %d records", tw.count)
	}
	bad := outOfRange(&tw.m, addrs)
	good := addrs
	if bad >= 0 {
		good = addrs[:bad]
	}
	if err := tw.write(good); err != nil {
		return err
	}
	if bad >= 0 {
		return fmt.Errorf("trace: record %d: address %#x has bits outside the %d-bit mapping",
			tw.written, addrs[bad], tw.m.AddrBits())
	}
	return nil
}

// write appends records already checked against the mapping: in one write
// of their own memory on a little-endian host, one encoded record at a
// time elsewhere.
func (tw *Writer) write(addrs []uint64) error {
	if b, ok := RecordBytes(addrs); ok {
		n, err := tw.w.Write(b)
		tw.written += uint64(n / RecordSize)
		if err != nil {
			return fmt.Errorf("trace: writing record %d: %v", tw.written, err)
		}
		return nil
	}
	var rec [RecordSize]byte
	for _, addr := range addrs {
		binary.LittleEndian.PutUint64(rec[:], addr)
		if _, err := tw.w.Write(rec[:]); err != nil {
			return fmt.Errorf("trace: writing record %d: %v", tw.written, err)
		}
		tw.written++
	}
	return nil
}

// Close flushes the writer and verifies the declared count was met. It does
// not close the underlying io.Writer.
func (tw *Writer) Close() error {
	if tw.written != tw.count {
		return fmt.Errorf("trace: header declares %d records but %d were written", tw.count, tw.written)
	}
	if err := tw.w.Flush(); err != nil {
		return fmt.Errorf("trace: flushing: %v", err)
	}
	return nil
}

// WriteAll writes a complete binary trace for an in-memory record slice.
func WriteAll(w io.Writer, m addrmap.Mapping, addrs []uint64) error {
	tw, err := NewWriter(w, m, uint64(len(addrs)))
	if err != nil {
		return err
	}
	if err := tw.WriteBatch(addrs); err != nil {
		return err
	}
	return tw.Close()
}

// ReadAll decodes a complete binary trace into memory: the convenience form
// for tests and small traces. Replay paths should stream via Reader instead.
func ReadAll(r io.Reader) (addrmap.Mapping, []uint64, error) {
	tr, err := NewReader(r)
	if err != nil {
		return addrmap.Mapping{}, nil, err
	}
	addrs, err := Drain(tr, nil)
	if err != nil {
		return addrmap.Mapping{}, nil, err
	}
	return tr.Mapping(), addrs, nil
}

// Drain appends every remaining record of src to dst and returns it.
func Drain(src Source, dst []uint64) ([]uint64, error) {
	var batch [4096]uint64
	for {
		n, err := src.ReadBatch(batch[:])
		dst = append(dst, batch[:n]...)
		if err == io.EOF {
			return dst, nil
		}
		if err != nil {
			return dst, err
		}
	}
}
