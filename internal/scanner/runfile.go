package scanner

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net/netip"
	"os"
	"time"

	"repro/internal/authserver"
	"repro/internal/packet"
	"repro/internal/routing"
)

// Run files are the spill format of perfbench's traced replay
// (perfbench/replay.go), which still spills each shard's hits under
// Fold and streams them back: one shard's hits, already in canonical
// LessHit order (SealRuns), encoded compactly so a merge of them never
// holds more than one decoded hit per open run. The encoding is
// self-delimiting per hit — varints for the time and numeric fields,
// length-prefixed address bytes (4/16, preserving the v4 / v6 / 4-in-6
// distinction exactly), and the captured TCP SYN as its original wire
// bytes, reconstructed through packet.Decode on read so fingerprinting
// sees the same packet it would have seen in memory. The campaign
// engine writes none: Partition folds each shard's hits before the
// shard's buffers go. The format stays only for that replay and goes
// with it.

// runMagic guards against feeding an unrelated file to the merge.
const runMagic = "DRUN1"

// maxSYNLen bounds a spilled SYN's length prefix: no captured packet is
// longer than the largest IP datagram, so anything above is corruption
// — and must not size an allocation.
const maxSYNLen = 65535

// HitRunWriter streams a sorted hit run to disk.
type HitRunWriter struct {
	f   *os.File
	w   *bufio.Writer
	buf []byte
}

// CreateHitRun creates (truncating) a run file at path.
func CreateHitRun(path string) (*HitRunWriter, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	w := &HitRunWriter{f: f, w: bufio.NewWriterSize(f, 1<<16)}
	if _, err := w.w.WriteString(runMagic); err != nil {
		f.Close()
		return nil, err
	}
	return w, nil
}

func appendAddr(b []byte, a netip.Addr) []byte {
	switch {
	case !a.IsValid():
		return append(b, 0)
	case a.Is4():
		v := a.As4()
		b = append(b, 4)
		return append(b, v[:]...)
	default:
		v := a.As16()
		b = append(b, 16)
		return append(b, v[:]...)
	}
}

// Write appends one hit.
func (w *HitRunWriter) Write(h *Hit) error {
	b := w.buf[:0]
	b = binary.AppendVarint(b, int64(h.Recv))
	b = binary.AppendVarint(b, int64(h.TS))
	b = binary.AppendVarint(b, int64(h.Lifetime))
	b = appendAddr(b, h.Src)
	b = appendAddr(b, h.Dst)
	b = binary.AppendUvarint(b, uint64(h.ASN))
	b = binary.AppendUvarint(b, uint64(h.Kind))
	b = appendAddr(b, h.Client)
	b = binary.AppendUvarint(b, uint64(h.ClientPort))
	b = binary.AppendUvarint(b, uint64(h.Transport))
	if h.SYN == nil {
		b = append(b, 0)
	} else {
		if len(h.SYN.Raw) == 0 {
			return fmt.Errorf("runfile: SYN packet without raw bytes cannot spill")
		}
		b = append(b, 1)
		b = binary.AppendUvarint(b, uint64(len(h.SYN.Raw)))
		b = append(b, h.SYN.Raw...)
	}
	w.buf = b
	_, err := w.w.Write(b)
	return err
}

// Close flushes and closes the file.
func (w *HitRunWriter) Close() error {
	if err := w.w.Flush(); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}

// WriteHitRun spills an already-sorted hit run to path.
func WriteHitRun(path string, hits []Hit) error {
	w, err := CreateHitRun(path)
	if err != nil {
		return err
	}
	for i := range hits {
		if err := w.Write(&hits[i]); err != nil {
			w.Close()
			return err
		}
	}
	return w.Close()
}

// HitRunReader decodes a run file as a runs.Source[Hit]: Next yields
// hits in file (= canonical) order until EOF or a decode error, which
// Err surfaces.
type HitRunReader struct {
	f   *os.File
	r   *bufio.Reader
	err error
}

// OpenHitRun opens a run file for streaming.
func OpenHitRun(path string) (*HitRunReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	r := &HitRunReader{f: f, r: bufio.NewReaderSize(f, 1<<16)}
	magic := make([]byte, len(runMagic))
	if _, err := io.ReadFull(r.r, magic); err != nil || string(magic) != runMagic {
		f.Close()
		return nil, fmt.Errorf("runfile: %s is not a hit run file", path)
	}
	return r, nil
}

func (r *HitRunReader) readAddr() netip.Addr {
	n, err := r.r.ReadByte()
	if err != nil {
		r.fail(err)
		return netip.Addr{}
	}
	switch n {
	case 0:
		return netip.Addr{}
	case 4:
		var v [4]byte
		if _, err := io.ReadFull(r.r, v[:]); err != nil {
			r.fail(err)
			return netip.Addr{}
		}
		return netip.AddrFrom4(v)
	case 16:
		var v [16]byte
		if _, err := io.ReadFull(r.r, v[:]); err != nil {
			r.fail(err)
			return netip.Addr{}
		}
		return netip.AddrFrom16(v)
	default:
		r.fail(fmt.Errorf("runfile: bad address length %d", n))
		return netip.Addr{}
	}
}

func (r *HitRunReader) varint() int64 {
	v, err := binary.ReadVarint(r.r)
	if err != nil {
		r.fail(err)
	}
	return v
}

func (r *HitRunReader) uvarint() uint64 {
	v, err := binary.ReadUvarint(r.r)
	if err != nil {
		r.fail(err)
	}
	return v
}

// fail records the first decode error; io.EOF on the first field of a
// hit is the clean end of the run and not an error.
func (r *HitRunReader) fail(err error) {
	if r.err == nil || r.err == io.EOF {
		r.err = err
	}
}

// Next implements runs.Source.
func (r *HitRunReader) Next() (Hit, bool) {
	if r.err != nil {
		return Hit{}, false
	}
	var h Hit
	// A clean EOF can only appear on the leading field; anything after
	// that is a truncated record.
	recv, err := binary.ReadVarint(r.r)
	if err != nil {
		r.err = err
		return Hit{}, false
	}
	h.Recv = time.Duration(recv)
	h.TS = time.Duration(r.varint())
	h.Lifetime = time.Duration(r.varint())
	h.Src = r.readAddr()
	h.Dst = r.readAddr()
	h.ASN = routing.ASN(r.uvarint())
	h.Kind = ProbeKind(r.uvarint())
	h.Client = r.readAddr()
	h.ClientPort = uint16(r.uvarint())
	h.Transport = authserver.Transport(r.uvarint())
	flag, err := r.r.ReadByte()
	if err != nil {
		r.fail(err)
	}
	if r.err == nil && flag == 1 {
		n := r.uvarint()
		if r.err == nil && n > maxSYNLen {
			r.fail(fmt.Errorf("runfile: spilled SYN length %d exceeds %d", n, maxSYNLen))
		}
		if r.err == nil {
			raw := make([]byte, n)
			if _, err := io.ReadFull(r.r, raw); err != nil {
				r.fail(err)
			} else {
				p, err := packet.Decode(raw)
				if err != nil {
					r.fail(fmt.Errorf("runfile: spilled SYN does not decode: %w", err))
				} else {
					h.SYN = p
				}
			}
		}
	}
	if r.err != nil {
		if r.err == io.EOF {
			r.err = io.ErrUnexpectedEOF
		}
		return Hit{}, false
	}
	return h, true
}

// Err implements runs.Source: nil after a clean drain, else the first
// I/O or decode failure.
func (r *HitRunReader) Err() error {
	if r.err == io.EOF {
		return nil
	}
	return r.err
}

// Close closes the underlying file.
func (r *HitRunReader) Close() error { return r.f.Close() }
