package wire

import (
	"bytes"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"mmfs/internal/obs"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/frames.golden from the copy-framing path (WriteFrame over Request/OKResponse)")

const goldenPath = "testdata/frames.golden"

// goldenOp is one op's request and response bodies for fixed values,
// field for field what internal/client and internal/server encode.
type goldenOp struct {
	op        Op
	req, resp func(e *Encoder)
}

func empty(*Encoder) {}

// rangeBody is the body PLAY/FETCH/SUBSTRING/DELETE requests open with.
func rangeBody(e *Encoder) {
	e.Str("venkat").U64(7).U16(1).I64(1500000000).I64(-1)
}

var goldenSnapshot = obs.Snapshot{
	Counters: []obs.CounterValue{{Name: `mmfs_requests_total{op="Play"}`, Value: 1 << 40}, {Name: "mmfs_rounds_total", Value: 0}},
	Gauges:   []obs.GaugeValue{{Name: "mmfs_k", Value: -3}},
	Histograms: []obs.HistogramValue{{
		Name: "mmfs_disk_read_seconds", Uppers: []float64{0.001, 0.01, 0.1}, Buckets: []uint64{1, 2, 3}, Count: 6, Sum: 0.125,
	}},
}

var goldenOps = []goldenOp{
	{OpRecordStart,
		func(e *Encoder) {
			e.Str("venkat").Bool(true).U32(18000).F64(30).Bool(false).U32(0).F64(0).Bool(true).Bool(false)
		},
		func(e *Encoder) { e.U64(42) }},
	{OpRecordAppend,
		func(e *Encoder) {
			e.U64(42).U16(1).U32(3).Blob([]byte("frame-0")).Blob(nil).Blob(bytes.Repeat([]byte{0xA5}, 300))
		},
		empty},
	{OpRecordFinish,
		func(e *Encoder) { e.U64(42) },
		func(e *Encoder) { e.U64(9).I64(3000000000) }},
	{OpPlay,
		func(e *Encoder) { rangeBody(e); e.U32(2).Str("premium") },
		func(e *Encoder) { e.U32(0).U32(60).I64(123456789).U32(17).Str("premium").U16(1).U32(0) }},
	{OpFetch,
		rangeBody,
		func(e *Encoder) { e.U32(2).Blob(bytes.Repeat([]byte{1, 2, 3}, 50)).Blob([]byte{}) }},
	{OpInsert,
		func(e *Encoder) { e.Str("venkat").U64(7).I64(1000000000).U16(0).U64(8).I64(0).I64(500000000) },
		func(e *Encoder) { e.U32(4) }},
	{OpReplace,
		func(e *Encoder) {
			e.Str("venkat").U64(7).U16(2).I64(0).I64(1000000000).U64(8).I64(250000000).I64(1000000000)
		},
		func(e *Encoder) { e.U32(0) }},
	{OpSubstring, rangeBody, func(e *Encoder) { e.U64(10) }},
	{OpConcate,
		func(e *Encoder) { e.Str("venkat").U64(7).U64(8) },
		func(e *Encoder) { e.U64(11).U32(2) }},
	{OpDeleteRange, rangeBody, func(e *Encoder) { e.U32(1) }},
	{OpDeleteRope,
		func(e *Encoder) { e.Str("venkat").U64(7) },
		func(e *Encoder) { e.U32(2) }},
	{OpRopeInfo,
		func(e *Encoder) { e.U64(7) },
		func(e *Encoder) { e.Str("venkat").I64(3000000000).U32(3).Bool(true).Bool(false).U32(2) }},
	{OpListRopes, empty, func(e *Encoder) { e.U32(3).U64(1).U64(2).U64(1 << 63) }},
	{OpStats, empty,
		func(e *Encoder) {
			e.F64(0.4375).U32(5).U32(3).U64(192731).U32(2).U32(1).U32(1).U64(99).U64(1 << 20).U64(64 << 20).U32(1)
			e.U64(3).U64(2).U64(1)
			for c := 0; c < 3; c++ {
				e.U32(uint32(c)).U32(0).F64(29.97)
			}
			e.U64(4).U64(5).U64(6)
			e.U32(4).U16(0).U16(1).U16(2).U16(3)
			e.U32(7).U32(120).U64(840)
		}},
	{OpTextWrite, func(e *Encoder) { e.Str("notes.txt").Blob([]byte("in the gaps")) }, empty},
	{OpTextRead, func(e *Encoder) { e.Str("notes.txt") }, func(e *Encoder) { e.Blob([]byte("in the gaps")) }},
	{OpTextList, empty, func(e *Encoder) { e.U32(2).Str("a").Str("µ†ƒ-8") }},
	{OpSetAccess,
		func(e *Encoder) { e.Str("venkat").U64(7).U32(2).Str("ann").Str("bob").U32(0) },
		empty},
	{OpCheck, empty, func(e *Encoder) { e.U32(1).Str("leak").Str("sector 12 marked used, unreferenced") }},
	{OpAddTrigger, func(e *Encoder) { e.Str("venkat").U64(7).I64(2000000000).Str("caption") }, empty},
	{OpTriggers,
		func(e *Encoder) { e.Str("venkat").U64(7) },
		func(e *Encoder) { e.U32(2).I64(0).Str("start").I64(2000000000).Str("caption") }},
	{OpFlatten, func(e *Encoder) { e.Str("venkat").U64(7) }, func(e *Encoder) { e.U32(3) }},
	{OpMetrics, empty, func(e *Encoder) { EncodeSnapshot(e, goldenSnapshot) }},
	{OpRebuild, func(e *Encoder) { e.U32(1) }, func(e *Encoder) { e.Str("healthy").U64(480) }},
}

var errGolden = errors.New(`server: unknown rope 7 for user "venkat"`)

// goldenLines renders every op's request and response frame — length
// prefix, op or status, body — as "name kind hex" lines, plus one error
// response. frameBody turns an encoded body into the bytes on the wire,
// frameErr an error.
func goldenLines(t *testing.T, frameBody func(e *Encoder, code uint16, request bool) []byte, frameErr func(error) []byte) []string {
	t.Helper()
	var lines []string
	for _, g := range goldenOps {
		e := NewEncoder()
		g.req(e)
		lines = append(lines, fmt.Sprintf("%v req %s", g.op, hex.EncodeToString(frameBody(e, uint16(g.op), true))))
		e = NewEncoder()
		g.resp(e)
		lines = append(lines, fmt.Sprintf("%v resp %s", g.op, hex.EncodeToString(frameBody(e, StatusOK, false))))
	}
	return append(lines, "error resp "+hex.EncodeToString(frameErr(errGolden)))
}

// copyFrame is the framing every request and reply used before frames
// were built in place: Request/OKResponse copy the body behind its
// code, WriteFrame sends the length and the payload.
func copyFrame(t *testing.T, payload []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteFrame(&buf, payload); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func readGolden(t *testing.T) []string {
	t.Helper()
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	return strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
}

func diffGolden(t *testing.T, got []string) {
	t.Helper()
	want := readGolden(t)
	if len(got) != len(want) {
		t.Fatalf("%d frames, golden file has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("frame differs from %s:\n got %s\nwant %s", goldenPath, got[i], want[i])
		}
	}
}

// The bytes on the wire are pinned: every op's request and response
// for fixed values, as the copy-framing helpers produce them, equal the
// frames recorded before the encoder was rewritten.
func TestGoldenFramesCopyFraming(t *testing.T) {
	got := goldenLines(t,
		func(e *Encoder, code uint16, request bool) []byte {
			if request {
				return copyFrame(t, Request(Op(code), e.Bytes()))
			}
			return copyFrame(t, OKResponse(e.Bytes()))
		},
		func(err error) []byte { return copyFrame(t, ErrResponse(err)) })
	if *updateGolden {
		if err := os.WriteFile(goldenPath, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	diffGolden(t, got)
}
