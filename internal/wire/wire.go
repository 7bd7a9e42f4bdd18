// Package wire implements the message protocol between the HyperDrive
// scheduler and its node agents: length-prefixed JSON frames over any
// io.ReadWriter (normally a net.Conn). It replaces the gRPC transport
// used by the paper's prototype with a stdlib-only equivalent that keeps
// the same request/response and server-streaming (stats upload)
// semantics.
package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// MaxFrameSize bounds a single frame (64 MiB), comfortably above the
// largest CRIU-style snapshot the paper reports (~44 MB) while still
// rejecting garbage length prefixes from corrupted streams.
const MaxFrameSize = 64 << 20

// MsgType identifies the purpose of a frame.
type MsgType string

// Protocol message types. Scheduler -> agent: job control. Agent ->
// scheduler: stats and lifecycle reports.
const (
	// Scheduler -> agent.
	MsgStartJob     MsgType = "start_job"
	MsgResumeJob    MsgType = "resume_job"
	MsgSuspendJob   MsgType = "suspend_job"
	MsgTerminateJob MsgType = "terminate_job"
	MsgDecision     MsgType = "decision"
	MsgPing         MsgType = "ping"

	// Agent -> scheduler.
	MsgHello     MsgType = "hello"
	MsgAppStat   MsgType = "app_stat"
	MsgIterDone  MsgType = "iteration_finished"
	MsgJobExited MsgType = "job_exited"
	MsgSnapshot  MsgType = "snapshot"
	MsgAck       MsgType = "ack"
	MsgError     MsgType = "error"
	MsgPong      MsgType = "pong"
	// MsgAppStatBatch carries several AppStat payloads in one frame. An
	// agent running many concurrent jobs on one connection coalesces
	// the statistics that accumulate between decision boundaries, so a
	// server multiplexing hundreds of streams decodes one frame instead
	// of N (one length prefix, one JSON document, one type dispatch).
	MsgAppStatBatch MsgType = "app_stat_batch"
)

// knownTypes registers every frame type this protocol version defines.
// Recv consults it so a corrupted or hostile peer cannot route frames
// past the per-type switches in the scheduler and agent read loops:
// those switches are checked for exhaustiveness against *this* set, so
// anything outside it must die at the transport.
var knownTypes = map[MsgType]bool{
	MsgStartJob:     true,
	MsgResumeJob:    true,
	MsgSuspendJob:   true,
	MsgTerminateJob: true,
	MsgDecision:     true,
	MsgPing:         true,
	MsgHello:        true,
	MsgAppStat:      true,
	MsgIterDone:     true,
	MsgJobExited:    true,
	MsgSnapshot:     true,
	MsgAck:          true,
	MsgError:        true,
	MsgPong:         true,
	MsgAppStatBatch: true,
}

// Known reports whether t is a frame type this protocol version
// defines.
func (t MsgType) Known() bool { return knownTypes[t] }

// UnknownTypeError reports a structurally valid frame whose type tag is
// not part of the protocol. It is distinct from FrameError (malformed
// bytes) so callers can tell "corrupt stream" from "peer speaks a newer
// protocol".
type UnknownTypeError struct {
	Type MsgType
}

func (e *UnknownTypeError) Error() string {
	return fmt.Sprintf("wire: unknown message type %q", string(e.Type))
}

// Message is one frame: a type tag plus a JSON-encoded payload.
type Message struct {
	Type    MsgType         `json:"type"`
	Seq     uint64          `json:"seq,omitempty"`
	Payload json.RawMessage `json:"payload,omitempty"`
}

// NewMessage builds a Message, marshaling payload to JSON. A nil
// payload produces an empty payload field.
func NewMessage(t MsgType, payload interface{}) (Message, error) {
	m := Message{Type: t}
	if payload == nil {
		return m, nil
	}
	raw, err := json.Marshal(payload)
	if err != nil {
		return Message{}, fmt.Errorf("wire: marshal %s payload: %w", t, err)
	}
	m.Payload = raw
	return m, nil
}

// Decode unmarshals the payload into v.
func (m Message) Decode(v interface{}) error {
	if len(m.Payload) == 0 {
		return fmt.Errorf("wire: %s message has no payload", m.Type)
	}
	if err := json.Unmarshal(m.Payload, v); err != nil {
		return fmt.Errorf("wire: decode %s payload: %w", m.Type, err)
	}
	return nil
}

// FrameError describes a malformed frame.
type FrameError struct {
	Reason string
	Size   uint32
}

func (e *FrameError) Error() string {
	return fmt.Sprintf("wire: bad frame (%s, size %d)", e.Reason, e.Size)
}

// Conn frames Messages over an underlying stream. Reads and writes are
// individually serialized so a Conn may be shared by a reader goroutine
// and multiple writer goroutines.
type Conn struct {
	wmu sync.Mutex
	w   *bufio.Writer
	rmu sync.Mutex
	r   *bufio.Reader

	closer io.Closer
}

// NewConn wraps rw in a framed connection. If rw implements io.Closer,
// Close will close it.
func NewConn(rw io.ReadWriter) *Conn {
	c := &Conn{
		w: bufio.NewWriter(rw),
		r: bufio.NewReader(rw),
	}
	if cl, ok := rw.(io.Closer); ok {
		c.closer = cl
	}
	return c
}

// Send writes one message frame: 4-byte big-endian length, then the
// JSON body.
func (c *Conn) Send(m Message) error {
	body, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("wire: marshal frame: %w", err)
	}
	if len(body) > MaxFrameSize {
		return &FrameError{Reason: "frame too large", Size: uint32(len(body) & 0xffffffff)}
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
	// Frame atomicity is the point of wmu: header, body, and flush must
	// reach the stream as one unit or concurrent senders interleave
	// garbage. Blocking on a slow peer here is the protocol's behavior,
	// not an accident.
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if _, err := c.w.Write(hdr[:]); err != nil { //hdlint:ignore locksafe wmu exists to make the frame write atomic; see above
		return fmt.Errorf("wire: write header: %w", err)
	}
	if _, err := c.w.Write(body); err != nil { //hdlint:ignore locksafe wmu exists to make the frame write atomic; see above
		return fmt.Errorf("wire: write body: %w", err)
	}
	return c.w.Flush() //hdlint:ignore locksafe wmu exists to make the frame write atomic; see above
}

// SendTyped is Send(NewMessage(t, payload)).
func (c *Conn) SendTyped(t MsgType, payload interface{}) error {
	m, err := NewMessage(t, payload)
	if err != nil {
		return err
	}
	return c.Send(m)
}

// Recv reads one message frame. It returns io.EOF when the stream ends
// cleanly between frames.
func (c *Conn) Recv() (Message, error) {
	// rmu makes the header+body read atomic so concurrent receivers
	// cannot split a frame; waiting for bytes under it is the
	// protocol's behavior, mirroring Send's wmu.
	c.rmu.Lock()
	defer c.rmu.Unlock()
	var hdr [4]byte
	if _, err := io.ReadFull(c.r, hdr[:]); err != nil { //hdlint:ignore locksafe rmu exists to make the frame read atomic; see above
		if err == io.EOF {
			return Message{}, io.EOF
		}
		return Message{}, fmt.Errorf("wire: read header: %w", err)
	}
	size := binary.BigEndian.Uint32(hdr[:])
	if size == 0 {
		return Message{}, &FrameError{Reason: "zero-length frame", Size: 0}
	}
	if size > MaxFrameSize {
		return Message{}, &FrameError{Reason: "frame too large", Size: size}
	}
	// Grow the body buffer with the bytes that actually arrive instead
	// of trusting the length prefix: a corrupt or hostile peer claiming
	// MaxFrameSize on a short stream must not cost a 64 MiB allocation.
	var body bytes.Buffer
	if _, err := io.CopyN(&body, c.r, int64(size)); err != nil { //hdlint:ignore locksafe rmu exists to make the frame read atomic; see above
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return Message{}, fmt.Errorf("wire: read body: %w", err)
	}
	var m Message
	if err := json.Unmarshal(body.Bytes(), &m); err != nil {
		return Message{}, &FrameError{Reason: "invalid JSON: " + err.Error(), Size: size}
	}
	if m.Type == "" {
		return Message{}, &FrameError{Reason: "missing type", Size: size}
	}
	if !m.Type.Known() {
		return Message{}, &UnknownTypeError{Type: m.Type}
	}
	return m, nil
}

// Close closes the underlying stream if it supports closing.
func (c *Conn) Close() error {
	if c.closer != nil {
		return c.closer.Close()
	}
	return nil
}

// --- Payload schemas shared by scheduler and agents. ---

// TraceContext is the distributed-tracing identity stamped onto job
// lifecycle frames: TraceID names the trace the job belongs to and
// SpanID the sender-side span that caused the frame, so the receiver
// can record its own work as a child span. Both fields are optional —
// frames from peers that predate tracing (or run with it off) simply
// omit them and decode to the zero value.
type TraceContext struct {
	TraceID string `json:"traceId,omitempty"`
	SpanID  string `json:"spanId,omitempty"`
}

// StartJobPayload asks an agent to begin (or resume) training a
// configuration. The job's metric history stays with the scheduler,
// whose policy does the curve prediction.
type StartJobPayload struct {
	JobID      string             `json:"jobId"`
	Workload   string             `json:"workload"` // workload registry name
	Config     map[string]float64 `json:"config"`
	MaxEpoch   int                `json:"maxEpoch"`
	Seed       int64              `json:"seed"`
	Snapshot   []byte             `json:"snapshot,omitempty"` // resume state
	StatPeriod int                `json:"statPeriod"`         // epochs between stat reports
	TraceContext
}

// DecisionPayload carries the SAP's OnIterationFinish verdict back to
// the agent that raised the iteration boundary.
type DecisionPayload struct {
	JobID    string `json:"jobId"`
	Decision string `json:"decision"` // "continue" | "suspend" | "terminate"
	TraceContext
}

// JobControlPayload addresses a running job (suspend/terminate).
type JobControlPayload struct {
	JobID string `json:"jobId"`
	TraceContext
}

// HelloPayload introduces an agent to the scheduler.
type HelloPayload struct {
	AgentID string `json:"agentId"`
	Slots   int    `json:"slots"`
}

// AppStatPayload reports one application statistic sample (paper §4.2:
// "model-generated application statistics such as performance stats").
type AppStatPayload struct {
	JobID    string  `json:"jobId"`
	Epoch    int     `json:"epoch"`
	Metric   float64 `json:"metric"`          // accuracy or reward
	Dur0nsec int64   `json:"epochDurationNs"` // measured epoch duration
}

// AppStatBatchPayload is the body of MsgAppStatBatch: the statistics
// an agent accumulated across its concurrent jobs since the last
// flush, in emission order. Receivers process entries exactly as if
// each had arrived in its own MsgAppStat frame.
type AppStatBatchPayload struct {
	Stats []AppStatPayload `json:"stats"`
}

// IterDonePayload signals an iteration boundary so the SAP can decide
// continue/suspend/terminate.
type IterDonePayload struct {
	JobID string `json:"jobId"`
	Epoch int    `json:"epoch"`
	TraceContext
}

// JobExitedPayload reports job completion or failure.
type JobExitedPayload struct {
	JobID  string `json:"jobId"`
	Epoch  int    `json:"epoch"`
	Reason string `json:"reason"` // "completed" | "terminated" | "suspended" | "error"
	Error  string `json:"error,omitempty"`
	TraceContext
}

// SnapshotPayload uploads a suspended job's training state to the
// scheduler's AppStat DB (paper §4.2: state is synchronized so any
// machine can resume training).
type SnapshotPayload struct {
	JobID string `json:"jobId"`
	Epoch int    `json:"epoch"`
	State []byte `json:"state"`
	TraceContext
}

// ErrorPayload reports an agent-side failure.
type ErrorPayload struct {
	JobID   string `json:"jobId,omitempty"`
	Message string `json:"message"`
}
