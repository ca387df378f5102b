// Package textfs implements conventional (non-real-time) file storage
// inside the multimedia file system, realizing the paper's observation
// that "a common file server can … integrate the functions of both a
// conventional text file server and a multimedia file server by
// employing constrained block allocation for (real-time) media
// strands, and using the gaps between successive blocks of a media
// strand to store text files" (§3).
//
// Text files use the allocator's unconstrained first-fit path, which
// naturally lands in the gaps constrained media allocation leaves
// between media blocks. Text reads and writes are untimed: they are
// best-effort traffic with no continuity requirement.
package textfs

import (
	"encoding/binary"
	"fmt"
	"sort"

	"mmfs/internal/alloc"
	"mmfs/internal/disk"
	"mmfs/internal/wire"
)

// file is one stored text file.
type file struct {
	name string
	size int
	runs []alloc.Run
}

// Store is a flat namespace of text files sharing the media
// allocator.
type Store struct {
	d     disk.Device
	a     *alloc.Allocator
	files map[string]*file
	// extentSectors caps each extent so files interleave with media
	// gaps instead of demanding large contiguous runs.
	extentSectors int
}

// NewStore creates an empty text-file store over the shared disk and
// allocator.
func NewStore(d disk.Device, a *alloc.Allocator) *Store {
	return &Store{d: d, a: a, files: make(map[string]*file), extentSectors: 16}
}

// Write creates or replaces a file with the given contents.
func (s *Store) Write(name string, data []byte) error {
	if name == "" {
		return fmt.Errorf("textfs: empty file name")
	}
	if old, ok := s.files[name]; ok {
		s.release(old)
		delete(s.files, name)
	}
	f := &file{name: name, size: len(data)}
	ss := s.d.Geometry().SectorSize
	remaining := data
	for len(remaining) > 0 {
		want := (len(remaining) + ss - 1) / ss
		if want > s.extentSectors {
			want = s.extentSectors
		}
		run, err := s.allocateExtent(want)
		if err != nil {
			s.release(f)
			return err
		}
		n := run.Sectors * ss
		if n > len(remaining) {
			n = len(remaining)
		}
		if err := s.d.WriteAt(run.LBA, remaining[:n]); err != nil {
			s.a.Free(run)
			s.release(f)
			return err
		}
		f.runs = append(f.runs, run)
		remaining = remaining[n:]
	}
	s.files[name] = f
	return nil
}

// allocateExtent gets up to want sectors, shrinking on fragmentation.
func (s *Store) allocateExtent(want int) (alloc.Run, error) {
	for n := want; n >= 1; n /= 2 {
		if run, err := s.a.Allocate(n); err == nil {
			return run, nil
		}
	}
	return alloc.Run{}, fmt.Errorf("textfs: %w", alloc.ErrNoSpace)
}

// Read returns a file's contents.
func (s *Store) Read(name string) ([]byte, error) {
	f, ok := s.files[name]
	if !ok {
		return nil, fmt.Errorf("textfs: no such file %q", name)
	}
	ss := s.d.Geometry().SectorSize
	out := make([]byte, 0, f.size)
	remaining := f.size
	for _, run := range f.runs {
		buf, err := s.d.ReadAt(run.LBA, run.Sectors)
		if err != nil {
			return nil, err
		}
		n := run.Sectors * ss
		if n > remaining {
			n = remaining
		}
		out = append(out, buf[:n]...)
		remaining -= n
	}
	return out, nil
}

func (s *Store) release(f *file) {
	for _, run := range f.runs {
		s.a.Free(run)
	}
	f.runs = nil
}

// List names all files, sorted.
func (s *Store) List() []string {
	out := make([]string, 0, len(s.files))
	for n := range s.files {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Len reports the number of files.
func (s *Store) Len() int { return len(s.files) }

// Extents lists the disk runs backing a file; the integrity checker
// uses it. An unknown name yields nil.
func (s *Store) Extents(name string) []alloc.Run {
	f, ok := s.files[name]
	if !ok {
		return nil
	}
	return append([]alloc.Run(nil), f.runs...)
}

const tableMagic = 0x4d4d5446 // "MMTF"

// Marshal appends the serialized file table to dst and returns the
// extended slice; Sync passes its metadata scratch buffer.
func (s *Store) Marshal(dst []byte) []byte {
	le := binary.LittleEndian
	b := le.AppendUint32(dst, tableMagic)
	b = le.AppendUint32(b, uint32(len(s.files)))
	for _, name := range s.List() {
		f := s.files[name]
		b = append(le.AppendUint32(b, uint32(len(f.name))), f.name...)
		b = le.AppendUint64(b, uint64(f.size))
		b = le.AppendUint32(b, uint32(len(f.runs)))
		for _, r := range f.runs {
			b = le.AppendUint32(b, uint32(r.LBA))
			b = le.AppendUint32(b, uint32(r.Sectors))
		}
	}
	return b
}

// Unmarshal restores the file table, decoding it in place through the
// wire codec's cursor (the same little-endian fields and length-prefixed
// strings).
func (s *Store) Unmarshal(data []byte) error {
	d := wire.NewDecoder(data)
	if magic := d.U32(); d.Err() == nil && magic != tableMagic {
		return fmt.Errorf("textfs: bad table magic %#x", magic)
	}
	count := d.Count(4 + 8 + 4) // an empty name, a size, no runs
	if d.Err() == nil {
		s.files = make(map[string]*file, count)
	}
	for i := 0; i < count; i++ {
		f := &file{name: d.Str(), size: int(d.U64())}
		f.runs = make([]alloc.Run, d.Count(8))
		for j := range f.runs {
			f.runs[j].LBA = int(d.U32())
			f.runs[j].Sectors = int(d.U32())
		}
		if d.Err() != nil {
			break
		}
		s.files[f.name] = f
	}
	if err := d.Err(); err != nil {
		return fmt.Errorf("textfs: table: %w", err)
	}
	return nil
}
