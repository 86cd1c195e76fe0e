package scanner

import (
	"encoding/binary"
	"fmt"
	"net/netip"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/authserver"
	"repro/internal/packet"
)

func sampleHits(t testing.TB) []Hit {
	t.Helper()
	raw, err := packet.BuildTCP(
		netip.MustParseAddr("192.0.2.9"), netip.MustParseAddr("198.51.100.1"),
		&packet.TCP{SrcPort: 40000, DstPort: 53, Seq: 7, SYN: true, Window: 65535,
			Options: []packet.TCPOption{{Kind: packet.TCPOptMSS, Data: []byte{0x05, 0xb4}}}},
		64, nil)
	if err != nil {
		t.Fatalf("BuildTCP: %v", err)
	}
	syn, err := packet.Decode(raw)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	return []Hit{
		{
			Recv: 5 * time.Second, TS: 4 * time.Second, Lifetime: time.Second,
			Src: netip.MustParseAddr("203.0.113.7"), Dst: netip.MustParseAddr("198.51.100.1"),
			ASN: 64500, Kind: ProbeMain,
			Client: netip.MustParseAddr("198.51.100.1"), ClientPort: 3205,
			Transport: authserver.TransportUDP,
		},
		{
			Recv: 6 * time.Second, TS: 6 * time.Second, Lifetime: 0,
			Src: netip.MustParseAddr("2001:db8::5"), Dst: netip.MustParseAddr("2001:db8::1"),
			ASN: 64501, Kind: ProbeTC,
			Client: netip.MustParseAddr("2001:db8::1"), ClientPort: 53411,
			Transport: authserver.TransportTCP, SYN: syn,
		},
		{
			// Invalid source (upstream decode failure) and a zero port.
			Recv: 7 * time.Second, TS: 5 * time.Second, Lifetime: 2 * time.Second,
			Dst: netip.MustParseAddr("198.51.100.2"), ASN: 64502, Kind: ProbeV6,
			Client: netip.MustParseAddr("::ffff:198.51.100.2"), ClientPort: 0,
			Transport: authserver.TransportUDP,
		},
	}
}

func TestHitRunRoundTrip(t *testing.T) {
	hits := sampleHits(t)
	path := filepath.Join(t.TempDir(), "shard0.run")
	if err := WriteHitRun(path, hits); err != nil {
		t.Fatalf("WriteHitRun: %v", err)
	}
	r, err := OpenHitRun(path)
	if err != nil {
		t.Fatalf("OpenHitRun: %v", err)
	}
	defer r.Close()
	var got []Hit
	for {
		h, ok := r.Next()
		if !ok {
			break
		}
		got = append(got, h)
	}
	if err := r.Err(); err != nil {
		t.Fatalf("Err: %v", err)
	}
	if !reflect.DeepEqual(got, hits) {
		t.Fatalf("round trip diverged:\n got %+v\nwant %+v", got, hits)
	}
	// The 4-in-6 client must survive as 4-in-6, not collapse to v4.
	if !got[2].Client.Is4In6() {
		t.Fatalf("4-in-6 client collapsed: %v", got[2].Client)
	}
}

func TestHitRunRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "not-a-run")
	if err := WriteHitRun(path, nil); err != nil {
		t.Fatalf("WriteHitRun: %v", err)
	}
	if _, err := OpenHitRun(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("open of missing file succeeded")
	}
	// Truncate mid-record: the reader must surface an error, not a
	// silent short run.
	hits := sampleHits(t)
	full := filepath.Join(t.TempDir(), "full.run")
	if err := WriteHitRun(full, hits); err != nil {
		t.Fatalf("WriteHitRun: %v", err)
	}
	raw, err := os.ReadFile(full)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	cut := filepath.Join(t.TempDir(), "cut.run")
	if err := os.WriteFile(cut, raw[:len(raw)-5], 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	r, err := OpenHitRun(cut)
	if err != nil {
		t.Fatalf("OpenHitRun: %v", err)
	}
	defer r.Close()
	for {
		if _, ok := r.Next(); !ok {
			break
		}
	}
	if r.Err() == nil {
		t.Fatal("truncated run drained cleanly")
	}
}

// TestHitRunRejectsHugeSYNLength feeds a hit whose SYN length prefix is
// 1<<62: the reader must surface an error instead of sizing an
// allocation from it (which panics, or at a few GB exhausts memory).
func TestHitRunRejectsHugeSYNLength(t *testing.T) {
	rec := binary.AppendVarint(nil, 1) // Recv
	rec = binary.AppendVarint(rec, 1)  // TS
	rec = binary.AppendVarint(rec, 0)  // Lifetime
	rec = append(rec, 4, 192, 0, 2, 1) // Src
	rec = append(rec, 4, 192, 0, 2, 2) // Dst
	rec = binary.AppendUvarint(rec, 64500)
	rec = binary.AppendUvarint(rec, uint64(ProbeMain))
	rec = append(rec, 0) // Client
	rec = binary.AppendUvarint(rec, 53)
	rec = binary.AppendUvarint(rec, uint64(authserver.TransportTCP))
	rec = append(rec, 1) // SYN present
	rec = binary.AppendUvarint(rec, 1<<62)
	path := filepath.Join(t.TempDir(), "huge.run")
	if err := os.WriteFile(path, append([]byte(runMagic), rec...), 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := OpenHitRun(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, ok := r.Next(); ok {
		t.Fatal("hit with a 1<<62-byte SYN decoded")
	}
	if err := r.Err(); err == nil || !strings.Contains(err.Error(), "SYN length") {
		t.Fatalf("Err = %v, want the SYN length rejection", err)
	}
}

// readHitRun drains the run file at path.
func readHitRun(t *testing.T, path string) ([]Hit, error) {
	t.Helper()
	r, err := OpenHitRun(path)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	var hits []Hit
	for {
		h, ok := r.Next()
		if !ok {
			return hits, r.Err()
		}
		hits = append(hits, h)
	}
}

// FuzzRunFile asserts the run-file decoder's safety on arbitrary bytes:
// OpenHitRun and Next never panic, and every hit they do decode survives
// a write/read round trip unchanged.
func FuzzRunFile(f *testing.F) {
	hits := sampleHits(f)
	dir := f.TempDir()
	for i, seed := range [][]Hit{hits[:1], hits[1:2], hits[2:], hits, nil} {
		path := filepath.Join(dir, fmt.Sprintf("seed%d.run", i))
		if err := WriteHitRun(path, seed); err != nil {
			f.Fatal(err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		in := filepath.Join(dir, "in.run")
		if err := os.WriteFile(in, data, 0o644); err != nil {
			t.Fatal(err)
		}
		decoded, _ := readHitRun(t, in)
		if len(decoded) == 0 {
			return
		}
		out := filepath.Join(dir, "out.run")
		if err := WriteHitRun(out, decoded); err != nil {
			t.Fatalf("decoded hits do not re-encode: %v", err)
		}
		again, err := readHitRun(t, out)
		if err != nil {
			t.Fatalf("re-encoded run does not decode: %v", err)
		}
		if !reflect.DeepEqual(again, decoded) {
			t.Fatalf("round trip diverged:\n got %+v\nwant %+v", again, decoded)
		}
	})
}
