package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

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

// Reader streams records from a binary ACT trace. It buffers internally
// (one fixed buffer allocated at construction) and decodes with zero
// allocations per record; feed it batches via ReadBatch and reuse the batch
// slice across calls. Reader implements Source.
type Reader struct {
	r        io.Reader
	compiled addrmap.Compiled
	count    uint64
	read     uint64
	buf      []byte
	start    int
	end      int
	done     bool // trailing-data check performed
}

// readerBufSize is the Reader's internal buffer: large enough that the
// underlying reads amortize to nothing, small enough to stay cache-friendly.
const readerBufSize = 64 * 1024

// NewReader reads and validates the binary header from r and returns a
// Reader positioned at the first record. It rejects a bad magic, an
// unsupported version, nonzero reserved bytes or flags, and a mapping that
// does not Validate.
func NewReader(r io.Reader) (*Reader, error) {
	tr := &Reader{buf: make([]byte, readerBufSize)}
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
	// The record buffer is empty here, so its first bytes can stage the
	// header without an extra (escaping) scratch array.
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
func (tr *Reader) ReadBatch(dst []uint64) (int, error) {
	if tr.read == tr.count {
		if err := tr.checkTrailing(); err != nil {
			return 0, err
		}
		return 0, io.EOF
	}
	n := 0
	for n < len(dst) && tr.read < tr.count {
		if tr.end-tr.start < RecordSize {
			if err := tr.fill(); err != nil {
				return n, err
			}
		}
		// Decode every whole record the buffer holds in one tight loop,
		// then advance the stream position once.
		k := (tr.end - tr.start) / RecordSize
		if k > len(dst)-n {
			k = len(dst) - n
		}
		if left := tr.count - tr.read; uint64(k) > left {
			k = int(left)
		}
		out := dst[n : n+k]
		recs := tr.buf[tr.start : tr.start+k*RecordSize]
		for i := range out {
			addr := binary.LittleEndian.Uint64(recs[i*RecordSize:])
			if !tr.compiled.InRange(addr) {
				tr.start += i * RecordSize
				tr.read += uint64(i)
				return n + i, fmt.Errorf("trace: record %d (byte offset %d): address %#x has bits outside the %d-bit mapping",
					tr.read, tr.offset(), addr, tr.compiled.AddrBits())
			}
			out[i] = addr
		}
		tr.start += k * RecordSize
		tr.read += uint64(k)
		n += k
	}
	return n, nil
}

// fill compacts the buffer and reads until at least one whole record is
// available. EOF before the declared count is a torn tail.
func (tr *Reader) fill() error {
	copy(tr.buf, tr.buf[tr.start:tr.end])
	tr.end -= tr.start
	tr.start = 0
	for tr.end < RecordSize {
		m, err := tr.r.Read(tr.buf[tr.end:])
		tr.end += m
		if err != nil {
			if err == io.EOF {
				return fmt.Errorf("trace: torn tail: header declares %d records, stream ends after %d (byte offset %d)",
					tr.count, tr.read, tr.offset())
			}
			return fmt.Errorf("trace: reading record %d (byte offset %d): %v", tr.read, tr.offset(), err)
		}
	}
	return nil
}

// checkTrailing verifies nothing follows the declared records.
func (tr *Reader) checkTrailing() error {
	if tr.done {
		return nil
	}
	tr.done = true
	if tr.end > tr.start {
		return fmt.Errorf("trace: %d trailing bytes after %d declared records (byte offset %d)",
			tr.end-tr.start, tr.count, tr.offset())
	}
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
	var rec [RecordSize]byte
	for _, addr := range addrs {
		if !tw.m.InRange(addr) {
			return fmt.Errorf("trace: record %d: address %#x has bits outside the %d-bit mapping",
				tw.written, addr, tw.m.AddrBits())
		}
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
