package wire

import "io"

// Encoder writes frames to an underlying stream, reusing one scratch buffer
// so steady-state encoding allocates nothing per batch.
type Encoder struct {
	w   io.Writer
	buf []byte
}

// NewEncoder returns an Encoder writing frames to w.
func NewEncoder(w io.Writer) *Encoder { return &Encoder{w: w} }

// Encode frames one batch and writes it.
func (e *Encoder) Encode(events []Event) error {
	buf, err := AppendFrame(e.buf[:0], events)
	if err != nil {
		return err
	}
	e.buf = buf
	_, err = e.w.Write(buf)
	return err
}

// Decoder reads frames from an underlying stream. The frame buffer and the
// event slice are both reused across batches, so a long-lived connection
// decodes with zero per-event heap allocations once they reach high water.
type Decoder struct {
	r      io.Reader
	buf    []byte // unparsed bytes: buf[pos:fill]
	pos    int
	fill   int
	events []Event
}

// NewDecoder returns a Decoder reading frames from r.
func NewDecoder(r io.Reader) *Decoder {
	return &Decoder{r: r, buf: make([]byte, 0, 4096)}
}

// Next reads and decodes one frame, returning its batch. The returned slice
// is owned by the decoder and valid until the next call. io.EOF means a clean
// end of stream on a frame boundary; io.ErrUnexpectedEOF a stream cut mid-
// frame; any wire error is a hard protocol violation and the connection
// should be dropped.
func (d *Decoder) Next() ([]Event, error) {
	for {
		if d.pos < d.fill {
			events, n, err := DecodeFrame(d.buf[d.pos:d.fill], d.events[:0])
			if err == nil {
				d.pos += n
				d.events = events
				return events, nil
			}
			if err != ErrShort {
				return nil, err
			}
		}
		if err := d.fillMore(); err != nil {
			if err == io.EOF && d.pos < d.fill {
				return nil, io.ErrUnexpectedEOF
			}
			return nil, err
		}
	}
}

// fillMore reads more bytes, compacting the consumed prefix first and growing
// the buffer only when a frame is larger than the current capacity (bounded
// by the decode-side MaxFrameBytes check, so a hostile peer cannot force an
// unbounded grow).
func (d *Decoder) fillMore() error {
	if d.pos > 0 {
		d.fill = copy(d.buf[:cap(d.buf)], d.buf[d.pos:d.fill])
		d.pos = 0
		d.buf = d.buf[:d.fill]
	}
	if d.fill == cap(d.buf) {
		grown := make([]byte, d.fill, 2*cap(d.buf)+1024)
		copy(grown, d.buf[:d.fill])
		d.buf = grown
	}
	n, err := d.r.Read(d.buf[d.fill:cap(d.buf)])
	d.fill += n
	d.buf = d.buf[:d.fill]
	if n > 0 {
		return nil
	}
	if err == nil {
		err = io.ErrNoProgress
	}
	return err
}
