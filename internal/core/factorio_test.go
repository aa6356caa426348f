package core

import (
	"bytes"
	"encoding/binary"
	"hash/crc64"
	"math"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/semiring"
)

func TestFactorRoundTrip(t *testing.T) {
	g := gen.RoadNetwork(14, 14, 0.3, 91)
	plan, err := NewPlan(g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFactor(plan, 2)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	n, err := f.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Errorf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	f2, err := ReadFactor(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Same SSSP answers, same memory, same structure.
	if f2.Memory() != f.Memory() {
		t.Errorf("memory %d != %d after round trip", f2.Memory(), f.Memory())
	}
	for src := 0; src < g.N; src += 23 {
		a := f.SSSP(src)
		b := f2.SSSP(src)
		for v := range a {
			if a[v] != b[v] && !(math.IsInf(a[v], 1) && math.IsInf(b[v], 1)) {
				t.Fatalf("SSSP(%d)[%d]: %g != %g", src, v, a[v], b[v])
			}
		}
	}
	if f.Dist(3, 100) != f2.Dist(3, 100) {
		t.Error("label query differs after round trip")
	}
}

func TestFactorRoundTripWidest(t *testing.T) {
	g := gen.GeometricKNN(100, 2, 3, gen.WeightUniform, 92)
	plan, err := NewPlan(g, Options{Semiring: semiring.MaxMinKernels})
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFactor(plan, 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := f.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	f2, err := ReadFactor(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if f2.K != semiring.MaxMinKernels {
		t.Error("semiring not restored")
	}
	a, b := f.SSSP(5), f2.SSSP(5)
	for v := range a {
		if a[v] != b[v] {
			t.Fatal("widest SSSP differs after round trip")
		}
	}
}

func TestCheckpointMetaRoundTrip(t *testing.T) {
	g := gen.RoadNetwork(8, 8, 0.3, 94)
	plan, err := NewPlan(g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFactor(plan, 1)
	if err != nil {
		t.Fatal(err)
	}
	meta := CheckpointMeta{
		Generation:  7,
		GraphDigest: GraphDigest(g),
		Overlay: []EdgeDelta{
			{U: 0, V: 1, W: 0.25},
			{U: 2, V: 9, W: 3.5},
		},
	}
	var buf bytes.Buffer
	if _, err := WriteFactorMeta(&buf, f, meta); err != nil {
		t.Fatal(err)
	}
	f2, got, err := ReadFactorMeta(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Generation != 7 || got.GraphDigest != meta.GraphDigest {
		t.Fatalf("meta round trip: %+v, want %+v", got, meta)
	}
	if len(got.Overlay) != 2 || got.Overlay[0] != meta.Overlay[0] || got.Overlay[1] != meta.Overlay[1] {
		t.Fatalf("overlay round trip: %+v", got.Overlay)
	}
	if err := got.Validate(GraphDigest(g)); err != nil {
		t.Fatalf("Validate against own graph: %v", err)
	}
	// A different graph must be rejected by digest.
	other := gen.RoadNetwork(8, 8, 0.3, 95)
	if err := got.Validate(GraphDigest(other)); err == nil {
		t.Fatal("checkpoint for a different graph validated")
	}
	if f2.Dist(0, 5) != f.Dist(0, 5) {
		t.Fatal("factor differs after meta round trip")
	}
}

// TestCheckpointV2Rejected hand-builds a byte-faithful, correctly
// checksummed v2 stream (no meta block) and asserts the reader refuses
// it with an error that names the version and asks for a re-save.
func TestCheckpointV2Rejected(t *testing.T) {
	g := gen.Grid2D(6, 6, gen.WeightUniform, 96)
	plan, err := NewPlan(g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFactor(plan, 1)
	if err != nil {
		t.Fatal(err)
	}
	var v3 bytes.Buffer
	if _, err := f.WriteTo(&v3); err != nil {
		t.Fatal(err)
	}
	// A v3 file with a zero meta block differs from its v2 ancestor by
	// exactly: the version word, 24 meta bytes after the semiring id,
	// and the trailer CRC. Strip them and re-checksum to produce a
	// byte-faithful v2 file.
	data := v3.Bytes()
	body := append([]byte{}, data[8:len(data)-8]...) // checksummed body
	v2body := append([]byte{body[0]}, body[1+24:]...)
	v2 := make([]byte, 0, len(v2body)+16)
	v2 = append(v2, "SFWF\x02\x00\x00\x00"...)
	v2 = append(v2, v2body...)
	crc := crc64.Checksum(v2body, factorCRCTable)
	var trailer [8]byte
	binary.LittleEndian.PutUint64(trailer[:], crc)
	v2 = append(v2, trailer[:]...)

	_, _, err = ReadFactorMeta(bytes.NewReader(v2))
	if err == nil {
		t.Fatal("v2 checkpoint loaded; only v3 is readable")
	}
	if msg := err.Error(); !strings.Contains(msg, "v2") || !strings.Contains(msg, "re-save") {
		t.Fatalf("v2 rejection %q does not name the version and the re-save fix", msg)
	}
}

// TestCheckpointCorpusRejected drives ReadFactorMeta over a corpus of
// damaged v3 checkpoints — truncations at every structural boundary
// and bit flips in header, meta block, overlay, payload, and trailer —
// and requires every one to be rejected whole: a corrupt checkpoint is
// never half-applied.
func TestCheckpointCorpusRejected(t *testing.T) {
	g := gen.Grid2D(6, 6, gen.WeightUniform, 97)
	plan, err := NewPlan(g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFactor(plan, 1)
	if err != nil {
		t.Fatal(err)
	}
	meta := CheckpointMeta{Generation: 3, GraphDigest: GraphDigest(g),
		Overlay: []EdgeDelta{{U: 1, V: 2, W: 0.5}}}
	var buf bytes.Buffer
	if _, err := WriteFactorMeta(&buf, f, meta); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{0, 4, 8, 9, 17, 25, 33, 40, len(full) / 3, len(full) / 2, len(full) - 9, len(full) - 1} {
		if _, _, err := ReadFactorMeta(bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
	for _, flip := range []int{9, 13, 21, 29, 37, 45, len(full) / 2, len(full) - 4} {
		mut := append([]byte{}, full...)
		mut[flip] ^= 0x01
		f2, m2, err := ReadFactorMeta(bytes.NewReader(mut))
		if err == nil {
			t.Errorf("bit flip at %d accepted (gen %d)", flip, m2.Generation)
			_ = f2
		}
	}
}

func TestReadFactorRejectsGarbage(t *testing.T) {
	cases := []string{
		"",
		"NOPE",
		"SFWF\x09\x00\x00\x00", // bad version
	}
	for i, c := range cases {
		if _, err := ReadFactor(strings.NewReader(c)); err == nil {
			t.Errorf("case %d: garbage accepted", i)
		}
	}
	// Truncated real file.
	g := gen.Grid2D(6, 6, gen.WeightUniform, 93)
	plan, _ := NewPlan(g, DefaultOptions())
	f, _ := NewFactor(plan, 1)
	var buf bytes.Buffer
	if _, err := f.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{5, 12, len(full) / 2, len(full) - 1} {
		if _, err := ReadFactor(bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}
