package main

import (
	"encoding/binary"
	"fmt"
	"time"

	"mmfs/internal/continuity"
	"mmfs/internal/core"
	"mmfs/internal/media"
	"mmfs/internal/rope"
)

// clip is pregenerated media: the load generator builds every payload
// once, before set-up, so the timed phase uploads bytes instead of
// spending its time in a PRNG.
type clip struct {
	video []media.Unit
	audio []media.Unit
}

// makeClip builds seconds of video and audio. Video frames carry the
// sequence stamp media.ValidateFrameSeq checks, followed by a cheap
// xorshift fill (media.FramePayload draws a byte at a time from
// math/rand, which would dominate set-up). Audio comes from
// media.AudioSource so that silence elimination has talk spurts and
// silences to work on.
func makeClip(seconds int, salt uint64) clip {
	var c clip
	frames := seconds * videoRate
	c.video = make([]media.Unit, frames)
	x := salt*0x9e3779b97f4a7c15 | 1
	for i := range c.video {
		buf := make([]byte, frameBytes)
		binary.LittleEndian.PutUint64(buf, uint64(i))
		for off := 8; off+8 <= frameBytes; off += 8 {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			binary.LittleEndian.PutUint64(buf[off:], x)
		}
		c.video[i] = media.Unit{Seq: uint64(i), Payload: buf}
	}
	src := media.NewAudioSource(seconds*audioRate, audioBytes, audioRate, 0.3, 5, int64(salt))
	for {
		u, ok := src.Next()
		if !ok {
			break
		}
		c.audio = append(c.audio, u)
	}
	return c
}

func (c clip) videoSource() media.Source {
	return media.NewSliceSource(c.video, videoRate, frameBytes)
}

func (c clip) audioSource() media.Source {
	return media.NewSliceSource(c.audio, audioRate, audioBytes)
}

// fsOptions is the core.Options equivalent of the workload's mmfsd
// flags (mmfsd's flag defaults are disk.DefaultGeometry, placement 32
// cylinders, default class standard), used for the in-process server,
// the twin and the serve-* workloads.
func fsOptions(w workloadSpec) core.Options {
	return core.Options{Disks: w.Disks, CacheMB: w.CacheMB, QoSDefault: continuity.Standard}
}

// recordDirect records one clip through core exactly as the server's
// RECORD handler does: admit, run the manager dry, finish, sync.
func recordDirect(fs *core.FS, creator string, c clip, withAudio, silence bool) (rope.ID, error) {
	spec := core.RecordSpec{Creator: creator, Video: c.videoSource(), SilenceElimination: silence}
	if withAudio {
		spec.Audio = c.audioSource()
	}
	sess, err := fs.Record(spec)
	if err != nil {
		return 0, err
	}
	fs.Manager().RunUntilDone()
	r, err := sess.Finish()
	if err != nil {
		return 0, err
	}
	if err := fs.Sync(); err != nil {
		return 0, err
	}
	return r.ID, nil
}

// checkFrames validates fetched video units against the expected
// sequence stamps.
func checkFrames(units [][]byte, want []uint64) error {
	if len(units) != len(want) {
		return fmt.Errorf("fetched %d units, want %d", len(units), len(want))
	}
	for i, u := range units {
		if err := media.ValidateFrameSeq(u, want[i]); err != nil {
			return fmt.Errorf("unit %d: %w", i, err)
		}
	}
	return nil
}

// frameRange lists the stamps of count frames from a whole-second
// offset.
func frameRange(dst []uint64, from time.Duration, seconds int) []uint64 {
	first := uint64(from/time.Second) * videoRate
	for i := uint64(0); i < uint64(seconds*videoRate); i++ {
		dst = append(dst, first+i)
	}
	return dst
}
