package core

import (
	"fmt"
	"time"

	"mmfs/internal/continuity"
	"mmfs/internal/layout"
	"mmfs/internal/media"
	"mmfs/internal/msm"
	"mmfs/internal/rope"
	"mmfs/internal/strand"
)

// The display devices' internal buffer sizes in units, from which
// §3.3.4 derives the storage granularity.
const (
	videoDeviceBufferUnits = 6
	audioDeviceBufferUnits = 8
)

// RecordSpec describes a RECORD request (§4.1: "the file system begins
// recording a new multimedia rope consisting of new media (audio,
// video or both) strands").
type RecordSpec struct {
	// Creator owns the resulting rope.
	Creator string
	// Video is the video capture source; nil records no video.
	Video media.Source
	// Audio is the audio capture source; nil records no audio.
	Audio media.Source
	// SilenceElimination enables §4's silence detection and
	// elimination on the audio strand (homogeneous storage only;
	// heterogeneous blocks carry audio inline).
	SilenceElimination bool
	// Heterogeneous selects §3.3.3's heterogeneous-block storage:
	// both media are combined into composite units and stored in ONE
	// strand, giving implicit inter-media synchronization and one
	// disk access per block, at the cost of combining on storage and
	// separating on retrieval (media.MuxAVSource documents the unit
	// layout).
	// Requires both Video and Audio sources with rates that divide
	// evenly.
	Heterogeneous bool
	// CaptureBuffers is the number of block buffers on each capture
	// device; 0 uses 4.
	CaptureBuffers int
}

// RecordSession is an in-progress RECORD: it holds the admitted MSM
// requests and the strand writers. Drive the manager (RunUntilDone or
// RunRound) to make progress, then call Finish.
type RecordSession struct {
	fs       *FS
	spec     RecordSpec
	vWriter  *strand.Writer
	aWriter  *strand.Writer
	vID, aID strand.ID
	// VideoReq and AudioReq are the MSM request IDs (zero when the
	// medium is absent).
	VideoReq msm.RequestID
	AudioReq msm.RequestID
	finished bool
}

// Record begins recording a new multimedia rope. It derives each
// medium's granularity and scattering from the continuity model,
// verifies the placement policy respects the derived bounds, admits
// the storage requests, and returns the session.
func (fs *FS) Record(spec RecordSpec) (*RecordSession, error) {
	if spec.Video == nil && spec.Audio == nil {
		return nil, fmt.Errorf("core: RECORD needs at least one medium")
	}
	if spec.CaptureBuffers == 0 {
		spec.CaptureBuffers = 4
	}
	s := &RecordSession{fs: fs, spec: spec}
	if spec.Heterogeneous {
		if spec.Video == nil || spec.Audio == nil {
			return nil, fmt.Errorf("core: heterogeneous RECORD needs both media")
		}
		mux, err := media.NewMuxAVSource(spec.Video, spec.Audio)
		if err != nil {
			return nil, err
		}
		if err := s.startMedium(layout.Mixed, mux, videoDeviceBufferUnits, nil); err != nil {
			s.abort()
			return nil, err
		}
		return s, nil
	}
	if spec.Video != nil {
		if err := s.startMedium(layout.Video, spec.Video, videoDeviceBufferUnits, nil); err != nil {
			s.abort()
			return nil, err
		}
	}
	if spec.Audio != nil {
		var det *media.SilenceDetector
		if spec.SilenceElimination {
			d := media.DefaultSilenceDetector()
			det = &d
		}
		if err := s.startMedium(layout.Audio, spec.Audio, audioDeviceBufferUnits, det); err != nil {
			s.abort()
			return nil, err
		}
	}
	return s, nil
}

// startMedium derives parameters, creates the writer, and admits the
// record request for one medium.
func (s *RecordSession) startMedium(m layout.Medium, src media.Source, deviceBufUnits int, det *media.SilenceDetector) error {
	fs := s.fs
	md := continuity.Media{
		Name:     m.String(),
		UnitBits: float64(src.UnitBytes() * 8),
		Rate:     src.Rate(),
	}
	dv, err := continuity.Derive(continuity.Config{Arch: continuity.Pipelined}, deviceBufUnits, md, fs.dev)
	if err != nil {
		return err
	}
	if fs.TargetScattering() > dv.MaxScattering {
		return fmt.Errorf("core: placement scattering %.4fs exceeds continuity bound %.4fs for %v",
			fs.TargetScattering(), dv.MaxScattering, m)
	}
	id := fs.strands.NewID()
	w, err := strand.NewWriter(fs.d, fs.a, strand.WriterConfig{
		ID:            id,
		Medium:        m,
		Rate:          src.Rate(),
		UnitBytes:     src.UnitBytes(),
		Granularity:   dv.Granularity,
		Variable:      media.IsVariable(src),
		Constraint:    fs.Constraint(),
		Silence:       det,
		StartCylinder: fs.nextStartCylinder(),
	})
	if err != nil {
		return err
	}
	plan := msm.PlanRecord(fmt.Sprintf("record-%v-%d", m, id), w, src, dv.Granularity, 0,
		fs.TargetScattering(), s.spec.CaptureBuffers)
	req, _, err := fs.mgr.AdmitRecord(plan)
	if err != nil {
		w.Abort()
		return err
	}
	switch m {
	case layout.Audio:
		s.aWriter, s.aID, s.AudioReq = w, id, req
	default:
		// Video and Mixed strands occupy the primary (video) slot.
		s.vWriter, s.vID, s.VideoReq = w, id, req
	}
	return nil
}

// abort releases a partially started session.
func (s *RecordSession) abort() {
	if s.vWriter != nil {
		s.vWriter.Abort()
	}
	if s.aWriter != nil {
		s.aWriter.Abort()
	}
	s.finished = true
}

// Stop issues STOP on the session's requests (halting capture); the
// strands finalize on Finish.
func (s *RecordSession) Stop() error {
	if s.VideoReq != 0 {
		if err := s.fs.mgr.Stop(s.VideoReq); err != nil {
			return err
		}
	}
	if s.AudioReq != 0 {
		if err := s.fs.mgr.Stop(s.AudioReq); err != nil {
			return err
		}
	}
	return nil
}

// Finish closes the strand writers, registers the strands, and creates
// the multimedia rope tying them together with block-level
// correspondence. Call it after the manager has drained the record
// requests (or after Stop).
func (s *RecordSession) Finish() (*rope.Rope, error) {
	if s.finished {
		return nil, fmt.Errorf("core: record session already finished")
	}
	s.finished = true
	fs := s.fs
	var vs, as *strand.Strand
	var err error
	if s.vWriter != nil {
		if vs, err = s.vWriter.Close(); err != nil {
			return nil, err
		}
		fs.strands.Put(vs)
	}
	if s.aWriter != nil {
		if as, err = s.aWriter.Close(); err != nil {
			return nil, err
		}
		fs.strands.Put(as)
	}
	r := fs.ropes.Create(s.spec.Creator)
	iv := rope.Interval{}
	var dur time.Duration
	if vs != nil {
		iv.Video = &rope.ComponentRef{Strand: vs.ID()}
		dur = continuity.Duration(vs.Duration())
	}
	if as != nil {
		iv.Audio = &rope.ComponentRef{Strand: as.ID()}
		if d := continuity.Duration(as.Duration()); d > dur {
			dur = d
		}
	}
	iv.Duration = dur
	if vs != nil && as != nil {
		iv.Corr = []rope.Correspondence{{VideoBlock: 0, AudioBlock: 0}}
	}
	r.Intervals = []rope.Interval{iv}
	fs.ropes.SyncInterests(r)
	return r, nil
}
