package main

import (
	"bytes"
	"time"

	"mmfs/internal/obs"
	"mmfs/internal/wire"
)

// codecCost is what one op's bodies cost to move through the wire
// package, measured from outside by doing what the client stub and the
// server handler do to them: encode the body, frame it, write and read
// the frame, parse it, decode every field.
type codecCost struct {
	ReqNs, RespNs float64
	Bytes         int // request + response frame bytes
}

// codecShape builds one op's request and response bodies and decodes
// them again; the shapes follow internal/client and internal/server
// field for field.
type codecShape struct {
	encReq  func(e *wire.Encoder)
	decReq  func(d *wire.Decoder)
	encResp func(e *wire.Encoder)
	decResp func(d *wire.Decoder)
}

// measureCodec times a shape's request and response paths.
func measureCodec(op wire.Op, s codecShape) codecCost {
	var cost codecCost
	var pipe bytes.Buffer
	oneWay := func(enc func(*wire.Encoder), frame func([]byte) []byte, parse func([]byte) []byte, dec func(*wire.Decoder)) (float64, int) {
		size := 0
		ns := perCall(func() {
			e := wire.GetEncoder()
			enc(e)
			pipe.Reset()
			_ = wire.WriteFrame(&pipe, frame(e.Bytes()))
			wire.PutEncoder(e)
			size = pipe.Len()
			buf, err := wire.ReadFrame(&pipe)
			if err != nil {
				panic(err) // the frame was written a line above
			}
			d := wire.NewDecoder(parse(buf))
			dec(d)
			if d.Err() != nil {
				panic(d.Err()) // a shape that cannot decode itself is a harness bug
			}
		})
		return ns, size
	}
	var reqBytes, respBytes int
	cost.ReqNs, reqBytes = oneWay(s.encReq,
		func(body []byte) []byte { return wire.Request(op, body) },
		func(f []byte) []byte { _, body, _ := wire.ParseRequest(f); return body }, s.decReq)
	cost.RespNs, respBytes = oneWay(s.encResp, wire.OKResponse,
		func(f []byte) []byte { body, _ := wire.ParseResponse(f); return body }, s.decResp)
	cost.Bytes = reqBytes + respBytes
	return cost
}

// rangeReq is the request body PLAY/FETCH/SUBSTRING/DELETE share:
// user, rope, medium, start, duration.
func rangeReq(e *wire.Encoder) {
	e.Str(benchUser).U64(7).U16(1).I64(int64(time.Second)).I64(int64(time.Second))
}

func rangeReqDec(d *wire.Decoder) { d.Str(); d.U64(); d.U16(); d.I64(); d.I64() }

// codecCosts measures every op kind the workload's script issues.
// fetchUnits is how many frames its FETCH replies carry; snap is a
// METRICS reply to re-encode.
func codecCosts(fetchUnits, catalogue int, c clip, snap obs.Snapshot) map[opKind]codecCost {
	frame := c.video[0].Payload
	small := codecShape{ // the shape of every editing op: a handful of scalars each way
		encReq:  func(e *wire.Encoder) { rangeReq(e); e.U64(9).I64(0).I64(0) },
		decReq:  func(d *wire.Decoder) { rangeReqDec(d); d.U64(); d.I64(); d.I64() },
		encResp: func(e *wire.Encoder) { e.U64(11).U32(0) },
		decResp: func(d *wire.Decoder) { d.U64(); d.U32() },
	}
	costs := map[opKind]codecCost{
		opPlay: measureCodec(wire.OpPlay, codecShape{
			encReq:  func(e *wire.Encoder) { rangeReq(e); e.U32(2).Str("") },
			decReq:  func(d *wire.Decoder) { rangeReqDec(d); d.U32(); d.Str() },
			encResp: func(e *wire.Encoder) { e.U32(0).U32(60).I64(1).U32(0).Str("standard").U16(1).U32(0) },
			decResp: func(d *wire.Decoder) {
				d.U32()
				d.U32()
				d.I64()
				d.U32()
				d.Str()
				d.U16()
				d.U32()
			},
		}),
		opFetch: measureCodec(wire.OpFetch, codecShape{
			encReq: rangeReq,
			decReq: rangeReqDec,
			encResp: func(e *wire.Encoder) {
				e.U32(uint32(fetchUnits))
				for i := 0; i < fetchUnits; i++ {
					e.Blob(frame)
				}
			},
			decResp: func(d *wire.Decoder) {
				for i, n := 0, int(d.U32()); i < n; i++ {
					d.Blob()
				}
			},
		}),
		opInfo: measureCodec(wire.OpRopeInfo, codecShape{
			encReq:  func(e *wire.Encoder) { e.U64(7) },
			decReq:  func(d *wire.Decoder) { d.U64() },
			encResp: func(e *wire.Encoder) { e.Str(benchUser).I64(1).U32(1).Bool(true).Bool(true).U32(2) },
			decResp: func(d *wire.Decoder) {
				d.Str()
				d.I64()
				d.U32()
				d.Bool()
				d.Bool()
				d.U32()
			},
		}),
		opListRopes: measureCodec(wire.OpListRopes, codecShape{
			encReq: func(*wire.Encoder) {},
			decReq: func(*wire.Decoder) {},
			encResp: func(e *wire.Encoder) {
				e.U32(uint32(catalogue))
				for i := 0; i < catalogue; i++ {
					e.U64(uint64(i))
				}
			},
			decResp: func(d *wire.Decoder) {
				for i, n := 0, int(d.U32()); i < n; i++ {
					d.U64()
				}
			},
		}),
		opMetrics: measureCodec(wire.OpMetrics, codecShape{
			encReq:  func(*wire.Encoder) {},
			decReq:  func(*wire.Decoder) {},
			encResp: func(e *wire.Encoder) { wire.EncodeSnapshot(e, snap) },
			decResp: func(d *wire.Decoder) { wire.DecodeSnapshot(d) },
		}),
		opStats: measureCodec(wire.OpStats, codecShape{
			encReq: func(*wire.Encoder) {},
			decReq: func(*wire.Decoder) {},
			encResp: func(e *wire.Encoder) { // 14 fixed fields, 3 classes, 3 QoS counters, mirror section, repair cursor
				e.F64(0.5).U32(1).U32(1).U64(1).U32(1).U32(0).U32(0).U64(0).U64(0).U64(0).U32(0).U64(0).U64(0).U64(0)
				for i := 0; i < 3; i++ {
					e.U32(0).U32(0).F64(0)
				}
				e.U64(0).U64(0).U64(0).U32(0).U32(0).U32(0).U64(0)
			},
			decResp: func(d *wire.Decoder) {
				d.F64()
				d.U32()
				d.U32()
				d.U64()
				d.U32()
				d.U32()
				d.U32()
				d.U64()
				d.U64()
				d.U64()
				d.U32()
				d.U64()
				d.U64()
				d.U64()
				for i := 0; i < 3; i++ {
					d.U32()
					d.U32()
					d.F64()
				}
				d.U64()
				d.U64()
				d.U64()
				d.U32()
				d.U32()
				d.U32()
				d.U64()
			},
		}),
		// RECORD is the upload: a clip's video and audio units in the
		// stub's batches of 64 (the start and finish frames are noise
		// beside them).
		opRecord: measureCodec(wire.OpRecordAppend, codecShape{
			encReq: func(e *wire.Encoder) {
				for _, units := range [][]int{{len(c.video), frameBytes}, {len(c.audio), audioBytes}} {
					for left := units[0]; left > 0; left -= 64 {
						n := min(left, 64)
						e.U64(1).U16(1).U32(uint32(n))
						for i := 0; i < n; i++ {
							e.Blob(frame[:units[1]])
						}
					}
				}
			},
			decReq: func(d *wire.Decoder) {
				for _, units := range []int{len(c.video), len(c.audio)} {
					for left := units; left > 0; left -= 64 {
						d.U64()
						d.U16()
						for i, n := 0, int(d.U32()); i < n; i++ {
							d.Blob()
						}
					}
				}
			},
			encResp: func(e *wire.Encoder) { e.U64(3).I64(1) },
			decResp: func(d *wire.Decoder) { d.U64(); d.I64() },
		}),
	}
	edit := measureCodec(wire.OpInsert, small)
	for _, k := range []opKind{opInsert, opSubstring, opConcate, opDelRange, opDelRope, opCheck} {
		costs[k] = edit
	}
	return costs
}
