package tracelog_test

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/scenario"
	"repro/internal/trace"
	"repro/internal/tracelog"
)

// FuzzDecoder feeds arbitrary (corrupt, truncated, hostile) bytes through
// the trace-log decoder. The contract under test: Next never panics and
// never allocates from an attacker-controlled length — it either decodes an
// event, returns io.EOF at a clean end, or returns an error. Seeds come from
// the committed golden scenario corpus (real, well-formed logs whose
// prefixes and mutations make the best corrupt inputs) plus a few synthetic
// edge cases.
func FuzzDecoder(f *testing.F) {
	// Golden corpus traces as seeds.
	golden, err := filepath.Glob(filepath.Join("..", "scenario", "testdata", "golden", "*.trace"))
	if err != nil {
		f.Fatal(err)
	}
	if len(golden) == 0 {
		f.Fatal("no golden corpus traces found (internal/scenario/testdata/golden)")
	}
	for _, path := range golden {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		// Truncations and single-byte corruptions of real logs.
		f.Add(data[:len(data)/2])
		if len(data) > 10 {
			mut := bytes.Clone(data)
			mut[len(mut)/3] ^= 0xff
			f.Add(mut)
		}
	}
	// A freshly recorded stream (ties the fuzz corpus to the live encoder
	// even if the golden files ever lag behind an encoding change), plus its
	// framed forms: a framed stream — with or without metadata frames — is
	// hostile garbage to the raw decoder and must be rejected, not misparsed.
	s := scenario.Generate(scenario.GenConfig{Seed: 12345})
	if v, live, err := scenario.Record(s, true, 1); err == nil {
		f.Add(live)
		if framed, err := tracelog.EncodeFramed("fuzz", live); err == nil {
			f.Add(framed)
		}
		if framed, err := tracelog.EncodeFramedMeta("fuzz", scenario.CaptureMetadata(v), live); err == nil {
			f.Add(framed)
		}
	}
	// Synthetic edge cases: empty, unknown opcode, huge claimed lengths.
	f.Add([]byte{})
	f.Add([]byte{0xfe})
	f.Add([]byte{7, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}) // segment with absurd edge count
	f.Add([]byte{5, 1, 1, 4, 1, 1, 0xff, 0xff, 0xff, 0xff, 0x0f})                // alloc with absurd tag length
	f.Add(accessZeroSize)
	f.Add(accessWrapping)

	f.Fuzz(func(t *testing.T, data []byte) {
		d := tracelog.NewDecoder(bytes.NewReader(data))
		var ev tracelog.Event
		for {
			err := d.Next(&ev)
			if err == io.EOF {
				return
			}
			if err != nil {
				return // any non-EOF error is a valid rejection
			}
			// Decoded events must still be deliverable without panicking,
			// and an access must name a non-empty granule range.
			if ev.Op == tracelog.OpAccess && (ev.Access.Size == 0 || ev.Access.Off+ev.Access.Size < ev.Access.Off) {
				t.Fatalf("decoded access with offset %d size %d", ev.Access.Off, ev.Access.Size)
			}
			ev.Deliver(trace.BaseSink{})
		}
	})
}

// FuzzFramedStream feeds arbitrary bytes through the full framed ingest
// surface: handshake, frame layer, and the event decoder stacked on top —
// exactly what the live server runs against an untrusted connection. The
// contract: never panic, never hang, never allocate from a hostile length
// claim; truncation anywhere is io.ErrUnexpectedEOF or a syntax error, and a
// clean io.EOF can only follow an explicit end frame. Seeds are framed
// encodings of the golden corpus plus mutations.
func FuzzFramedStream(f *testing.F) {
	golden, err := filepath.Glob(filepath.Join("..", "scenario", "testdata", "golden", "*.trace"))
	if err != nil {
		f.Fatal(err)
	}
	if len(golden) == 0 {
		f.Fatal("no golden corpus traces found (internal/scenario/testdata/golden)")
	}
	for i, path := range golden {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		framed, err := tracelog.EncodeFramed("seed", data)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(framed)
		f.Add(framed[:len(framed)/2]) // truncated mid-stream
		if i == 0 {
			mut := bytes.Clone(framed)
			mut[len(mut)/3] ^= 0xff
			f.Add(mut)
		}
	}
	// Metadata-frame seeds: a well-formed metadata-carrying session stream
	// plus hostile metadata payloads (absurd counts, truncated strings,
	// trailing bytes) behind a valid hello.
	sm := scenario.Generate(scenario.GenConfig{Seed: 54321})
	if v, live, err := scenario.Record(sm, true, 2); err == nil {
		if framed, err := tracelog.EncodeFramedMeta("meta-seed", scenario.CaptureMetadata(v), live); err == nil {
			f.Add(framed)
			f.Add(framed[:len(framed)*2/3]) // truncated inside/after the metadata frames
			mut := bytes.Clone(framed)
			mut[len(mut)/4] ^= 0xff
			f.Add(mut)
		}
	}
	helloMeta := []byte{'T', 'L', 'F', '1', 1, 1, 'x', byte(tracelog.FrameMetadata)}
	f.Add(append(bytes.Clone(helloMeta), 5, 0xff, 0xff, 0xff, 0xff, 0x0f)) // absurd stack count
	f.Add(append(bytes.Clone(helloMeta), 7, 1, 1, 0xff, 0xff, 0xff, 0x0f)) // absurd frame count
	f.Add(append(bytes.Clone(helloMeta), 5, 1, 1, 1, 10, 'x'))             // truncated string
	f.Add(append(bytes.Clone(helloMeta), 0xff, 0xff, 0xff, 0xff, 0x7f))    // oversized metadata claim
	f.Add(append(bytes.Clone(helloMeta), 5, 0, 0, 1, 2, 3))                // trailing bytes after tables

	// Router↔backend frame-kind seeds: an assign-opened session stream (the
	// router→backend forwarding form of a hello stream), a backend-stats
	// request, and hostile openers — a backend-report with an oversized
	// claim, and a truncated assign stream.
	if s := scenario.Generate(scenario.GenConfig{Seed: 2718}); true {
		if _, live, err := scenario.Record(s, true, 1); err == nil {
			var ab bytes.Buffer
			aw := tracelog.NewFrameWriter(&ab)
			if aw.Assign("fuzz-assign") == nil && aw.Events(live) == nil && aw.End() == nil {
				f.Add(bytes.Clone(ab.Bytes()))
				f.Add(ab.Bytes()[:ab.Len()*2/3])
			}
		}
	}
	f.Add([]byte{'T', 'L', 'F', '1', byte(tracelog.FrameBackendStats), 0})
	f.Add([]byte{'T', 'L', 'F', '1', byte(tracelog.FrameBackendReport), 0xff, 0xff, 0xff, 0xff, 0x7f})
	f.Add([]byte{'T', 'L', 'F', '1', byte(tracelog.FrameAssign), 2, 'x'})

	// Synthetic edges: bare magic, hello-only, oversized claims, raw log
	// without framing.
	f.Add([]byte("TLF1"))
	f.Add([]byte{'T', 'L', 'F', '1', 1, 0})
	f.Add([]byte{'T', 'L', 'F', '1', 2, 0xff, 0xff, 0xff, 0xff, 0x7f})
	f.Add([]byte{1, 1, 1, 1})

	f.Fuzz(func(t *testing.T, data []byte) {
		// The router pump: CopyFrame over arbitrary bytes must never panic,
		// hang, or allocate from a hostile claim — same contract as reading.
		cfr := tracelog.NewFrameReader(bytes.NewReader(data))
		cfw := tracelog.NewFrameWriter(io.Discard)
		for {
			if _, err := tracelog.CopyFrame(cfw, cfr); err != nil {
				break
			}
		}

		fr := tracelog.NewFrameReader(bytes.NewReader(data))
		kind, _, err := fr.Handshake()
		if err != nil {
			return
		}
		if kind != tracelog.FrameHello && kind != tracelog.FrameAssign {
			return // queries and stats requests carry no event stream
		}
		d := tracelog.NewDecoder(fr)
		var ev tracelog.Event
		for {
			err := d.Next(&ev)
			if err == io.EOF {
				return
			}
			if err != nil {
				return // any non-EOF error is a valid rejection
			}
			ev.Deliver(trace.BaseSink{})
		}
	})
}

// Hostile access events: thread 1, segment 1, block 1, address 0, then the
// offset and size under test, a write, non-atomic, stack 1. Delivered to a
// detector, either would walk about 2^32 granules.
var (
	accessZeroSize = []byte{1, 1, 1, 1, 0, 0, 0, 1, 0, 1}
	accessWrapping = []byte{1, 1, 1, 1, 0, 0xff, 0xff, 0xff, 0xff, 0x0f, 1, 1, 0, 1}
)

// TestDecoderBounds pins the hardening the fuzz target relies on: claimed
// lengths beyond the corruption bounds are rejected as errors, not
// allocated, and an access whose byte range is empty or wraps uint32 never
// reaches a tool.
func TestDecoderBounds(t *testing.T) {
	cases := map[string][]byte{
		"segment-edges":   {7, 1, 1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},
		"alloc-tag":       {5, 1, 1, 4, 1, 1, 0xff, 0xff, 0xff, 0xff, 0x0f},
		"access-size-0":   accessZeroSize,
		"access-wrapping": accessWrapping,
	}
	for name, data := range cases {
		d := tracelog.NewDecoder(bytes.NewReader(data))
		var ev tracelog.Event
		err := d.Next(&ev)
		if err == nil || err == io.EOF {
			t.Errorf("%s: Next = %v, want corruption error", name, err)
		}
	}
}
