// Package rope implements the paper's multimedia rope abstraction
// (§4): "a collection of multiple strands (of same or different
// medium) tied together by synchronization information". Ropes are the
// mutable, editable objects of the file system; the strands they
// reference are immutable, so every editing operation manipulates
// pointers to strand intervals rather than copying media data — except
// for the small, bounded copying that maintains the scattering
// parameter at interval junctions (§4.2, implemented in smooth.go).
package rope

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"mmfs/internal/strand"
)

// ID uniquely identifies a rope within one file system.
type ID uint64

// Correspondence is Figure 8's block-level correspondence entry,
// "used to synchronize the start of playback of all the media at
// strand interval boundaries".
type Correspondence struct {
	AudioBlock uint32
	VideoBlock uint32
}

// Trigger is Figure 8's trigger information: text synchronized with a
// video/audio block pair.
type Trigger struct {
	VideoBlock uint32
	AudioBlock uint32
	Text       string
}

// ComponentRef points one interval's medium at a position inside an
// immutable strand.
type ComponentRef struct {
	// Strand is the referenced strand; Nil means the medium is
	// absent for this interval (silence / blank).
	Strand strand.ID
	// StartUnit is the first referenced unit within the strand.
	StartUnit uint64
}

// Interval is one entry of a rope's interval list: up to one video and
// one audio component playing simultaneously for Duration. An edited
// rope "contains a list of pointers to intervals of strands".
type Interval struct {
	// Video is the video component, nil when absent.
	Video *ComponentRef
	// Audio is the audio component, nil when absent.
	Audio *ComponentRef
	// Duration is the interval's playback time.
	Duration time.Duration
	// Corr is the block-level correspondence information for this
	// interval.
	Corr []Correspondence
	// Triggers is the synchronized-text trigger list.
	Triggers []Trigger
}

// Component returns the ref for the medium, or nil.
func (iv *Interval) Component(m Medium) *ComponentRef {
	switch m {
	case VideoOnly:
		return iv.Video
	case AudioOnly:
		return iv.Audio
	}
	return nil
}

// setComponent stores the ref for a single medium.
func (iv *Interval) setComponent(m Medium, ref *ComponentRef) {
	switch m {
	case VideoOnly:
		iv.Video = ref
	case AudioOnly:
		iv.Audio = ref
	default:
		panic("rope: setComponent requires a single medium")
	}
}

// clone deep-copies the interval.
func (iv Interval) clone() Interval {
	out := iv
	if iv.Video != nil {
		v := *iv.Video
		out.Video = &v
	}
	if iv.Audio != nil {
		a := *iv.Audio
		out.Audio = &a
	}
	out.Corr = append([]Correspondence(nil), iv.Corr...)
	out.Triggers = append([]Trigger(nil), iv.Triggers...)
	return out
}

// Medium selects which media an operation applies to (§4.1: "Any of
// the editing operations may be performed on any subset of media
// constituting a rope").
type Medium int

const (
	// AudioVisual selects both media.
	AudioVisual Medium = iota
	// VideoOnly selects the video component.
	VideoOnly
	// AudioOnly selects the audio component.
	AudioOnly
)

// mediumNames is the one table of selectors: a selector's index is its
// code on the wire, its first name is what String prints, and ParseMedium
// accepts every name.
var mediumNames = [...][]string{
	AudioVisual: {"audiovisual", "av", "both"},
	VideoOnly:   {"video", "v"},
	AudioOnly:   {"audio", "a"},
}

// String names the selector.
func (m Medium) String() string { return mediumNames[m.Code()][0] }

// Code is the selector's number in the wire protocol; anything that is
// not a single medium travels as AudioVisual.
func (m Medium) Code() uint16 {
	if m < 0 || int(m) >= len(mediumNames) {
		return uint16(AudioVisual)
	}
	return uint16(m)
}

// MediumFromCode is Code's inverse.
func MediumFromCode(code uint16) (Medium, error) {
	if int(code) >= len(mediumNames) {
		return AudioVisual, fmt.Errorf("rope: unknown medium code %d", code)
	}
	return Medium(code), nil
}

// ParseMedium reads a selector as a person spells it: av, video or
// audio, their initials, and the long forms.
func ParseMedium(s string) (Medium, error) {
	name := strings.ToLower(s)
	for m, names := range mediumNames {
		if slices.Contains(names, name) {
			return Medium(m), nil
		}
	}
	return AudioVisual, fmt.Errorf("unknown medium %q (want av, video, or audio)", s)
}

// Rope is the Figure 8 data structure: identity, creator, access
// lists, and the interval list. (Figure 8's per-component recording
// rates and granularities live on the strands themselves and are
// resolved through the strand store, so they cannot diverge.)
type Rope struct {
	// ID is the rope's unique ID.
	ID ID
	// Creator identifies who recorded or derived the rope.
	Creator string
	// PlayAccess and EditAccess are user/group identification lists;
	// empty means everyone.
	PlayAccess []string
	EditAccess []string
	// Intervals is the interval list, played in order.
	Intervals []Interval
}

// Length is the rope's playback duration (Figure 8's Length, here
// derived so it cannot go stale).
func (r *Rope) Length() time.Duration {
	var sum time.Duration
	for _, iv := range r.Intervals {
		sum += iv.Duration
	}
	return sum
}

// CanPlay reports whether the user may play the rope.
func (r *Rope) CanPlay(user string) bool { return r.allowed(user, r.PlayAccess) }

// CanEdit reports whether the user may edit the rope.
func (r *Rope) CanEdit(user string) bool { return r.allowed(user, r.EditAccess) }

func (r *Rope) allowed(user string, list []string) bool {
	if user == r.Creator || len(list) == 0 {
		return true
	}
	for _, u := range list {
		if u == user {
			return true
		}
	}
	return false
}

// Strands lists the distinct strand IDs the rope references, ascending.
func (r *Rope) Strands() []strand.ID {
	out := make([]strand.ID, 0, 2*len(r.Intervals))
	for i := range r.Intervals {
		if v := r.Intervals[i].Video; v != nil && v.Strand != strand.Nil {
			out = append(out, v.Strand)
		}
		if a := r.Intervals[i].Audio; a != nil && a.Strand != strand.Nil {
			out = append(out, a.Strand)
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// clone deep-copies the rope's interval list into a new rope shell.
func (r *Rope) cloneIntervals() []Interval {
	out := make([]Interval, len(r.Intervals))
	for i, iv := range r.Intervals {
		out[i] = iv.clone()
	}
	return out
}

// normalize drops zero-duration intervals and merges nothing else
// (adjacent intervals with contiguous refs could be merged, but
// keeping them separate preserves edit history and costs only index
// entries).
func (r *Rope) normalize() {
	out := r.Intervals[:0]
	for _, iv := range r.Intervals {
		if iv.Duration > 0 {
			out = append(out, iv)
		}
	}
	r.Intervals = out
}

// validateRange checks an edit range against the rope length.
func (r *Rope) validateRange(start, dur time.Duration) error {
	if start < 0 || dur < 0 || start+dur > r.Length() {
		return fmt.Errorf("rope %d: range [%v, %v+%v) outside length %v", r.ID, start, start, dur, r.Length())
	}
	return nil
}
