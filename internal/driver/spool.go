package driver

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"sync"
)

// The spool is the disk-backed JobSource: an append-only record stream
// a front end writes once (cmd/coalesce -spool) and replays any number
// of times (-stream), so a generated corpus — or a directory walk — can
// be frozen and re-run byte-identically without holding any of it in
// memory. Records are self-delimiting (uvarint-length fields), the
// reader decodes them chunk by chunk under one lock, and prebuilt
// functions are spooled as their canonical IR text, which the replay
// parses like any other .ir input.

// spoolMagic heads every spool file; the digit is the format version.
const spoolMagic = "FCSPOOL1\n"

// spool record flags.
const (
	spoolIR byte = 1 << 0 // Src is IR text, not mini-language
)

// maxSpoolField bounds one field of a record. The reader checks a length
// against it before allocating, so a corrupt length fails the replay
// through Err instead of panicking in make or exhausting memory; the
// writer refuses longer fields, so every spool it writes replays. The
// largest field the generated corpus produces is under 32 KiB
// (closure-ladder at size 96), and coalesced accepts bodies of at most
// 8 MiB.
const maxSpoolField = 16 << 20

// SpoolWriter appends jobs to a spool stream.
type SpoolWriter struct {
	w   *bufio.Writer
	n   int64
	buf []byte
}

// NewSpoolWriter writes the header and returns a writer; call Flush
// when done.
func NewSpoolWriter(w io.Writer) (*SpoolWriter, error) {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.WriteString(spoolMagic); err != nil {
		return nil, err
	}
	return &SpoolWriter{w: bw}, nil
}

// WriteJob appends one job. A prebuilt Func is serialized as canonical
// IR text; cache keys are not spooled (the replay recomputes them).
func (s *SpoolWriter) WriteJob(j Job) error {
	src, isIR := j.Src, j.IR
	if j.Func != nil {
		s.buf = j.Func.AppendText(s.buf[:0])
		src, isIR = string(s.buf), true
	}
	var flags byte
	if isIR {
		flags |= spoolIR
	}
	var hdr [binary.MaxVarintLen64]byte
	writeField := func(b string) error {
		if len(b) > maxSpoolField {
			return fmt.Errorf("spool field of %d bytes exceeds the %d-byte limit", len(b), maxSpoolField)
		}
		n := binary.PutUvarint(hdr[:], uint64(len(b)))
		if _, err := s.w.Write(hdr[:n]); err != nil {
			return err
		}
		_, err := s.w.WriteString(b)
		return err
	}
	if err := writeField(j.Name); err != nil {
		return err
	}
	if err := writeField(j.Family); err != nil {
		return err
	}
	if err := s.w.WriteByte(flags); err != nil {
		return err
	}
	if err := writeField(src); err != nil {
		return err
	}
	s.n++
	return nil
}

// Count returns how many jobs have been written.
func (s *SpoolWriter) Count() int64 { return s.n }

// Flush drains the buffered writer.
func (s *SpoolWriter) Flush() error { return s.w.Flush() }

// SpoolSource replays a spool file as a JobSource. Decoding is
// sequential under one mutex — the disk is the bottleneck, not the
// lock — and each Pull hands out the next contiguous run of records.
type SpoolSource struct {
	mu   sync.Mutex
	r    *bufio.Reader
	c    io.Closer
	next int64
	err  error // first decode error; reported by Err after the run
}

// OpenSpool opens path and checks the header.
func OpenSpool(path string) (*SpoolSource, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	r := bufio.NewReaderSize(f, 1<<16)
	hdr := make([]byte, len(spoolMagic))
	if _, err := io.ReadFull(r, hdr); err != nil || string(hdr) != spoolMagic {
		f.Close()
		if err == nil {
			err = fmt.Errorf("spool %s: bad magic %q", path, hdr)
		}
		return nil, err
	}
	return &SpoolSource{r: r, c: f}, nil
}

// Pull implements JobSource. The first decode error ends the stream:
// the bytes after a corrupt record no longer fall on record boundaries.
func (s *SpoolSource) Pull(dst []Job) (int, int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	base := s.next
	if s.err != nil {
		return 0, base
	}
	n := 0
	for n < len(dst) {
		j, err := s.readJob()
		if err != nil {
			if err != io.EOF {
				s.err = fmt.Errorf("spool record %d: %w", s.next, err)
			}
			break
		}
		dst[n] = j
		n++
		s.next++
	}
	return n, base
}

// readJob decodes one record; io.EOF only at a clean record boundary.
func (s *SpoolSource) readJob() (Job, error) {
	readField := func(first bool) (string, error) {
		ln, err := binary.ReadUvarint(s.r)
		if err != nil {
			if err == io.EOF && first {
				return "", io.EOF
			}
			return "", fmt.Errorf("field length: %w", noEOF(err))
		}
		if ln > maxSpoolField {
			return "", fmt.Errorf("field length %d exceeds the %d-byte limit", ln, maxSpoolField)
		}
		b := make([]byte, ln)
		if _, err := io.ReadFull(s.r, b); err != nil {
			return "", fmt.Errorf("field body: %w", noEOF(err))
		}
		return string(b), nil
	}
	var j Job
	var err error
	if j.Name, err = readField(true); err != nil {
		return Job{}, err
	}
	if j.Family, err = readField(false); err != nil {
		return Job{}, err
	}
	flags, err := s.r.ReadByte()
	if err != nil {
		return Job{}, fmt.Errorf("flags: %w", noEOF(err))
	}
	j.IR = flags&spoolIR != 0
	if j.Src, err = readField(false); err != nil {
		return Job{}, err
	}
	return j, nil
}

// noEOF upgrades a mid-record EOF to ErrUnexpectedEOF so truncation is
// distinguishable from a clean end of stream.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// Err reports the first decode error hit during the run (nil for a
// clean replay). A truncated spool ends the stream early; the engine
// sees exhaustion, so callers must check Err afterwards.
func (s *SpoolSource) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Close releases the underlying file.
func (s *SpoolSource) Close() error { return s.c.Close() }
