package cache

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"repro/internal/can"
	"repro/internal/errormodel"
	"repro/internal/eventmodel"
	"repro/internal/gateway"
	"repro/internal/osek"
	"repro/internal/rta"
	"repro/internal/tdma"
)

// The persistent wire format of cache values: a type tag followed by a
// fixed field-by-field little-endian layout per type. Durations and
// ints travel as 64-bit words, floats as IEEE-754 bits, so a decoded
// value is bit-identical to the encoded one. The record header around
// this payload (magic, version, crc) lives in disk.go; CodecVersion is
// bumped on any layout change and skewed records read as misses.
const CodecVersion = 1

// Payload type tags. New types append; tags are never reused.
const (
	typeRTAResult     byte = 1
	typeRTAReport     byte = 2
	typeOSEKReport    byte = 3
	typeTDMAReport    byte = 4
	typeGatewayReport byte = 5
)

// Error-model tags inside rta.Config payloads.
const (
	errNil      byte = 0
	errNone     byte = 1
	errSporadic byte = 2
	errBurst    byte = 3
)

// Smallest encoded size, in bytes, of one slice element per report
// type (every string empty). A length prefix is checked against them,
// so a corrupt prefix reads as a decode error, not an allocation bomb.
const (
	minRTAResultLen  = 122
	minOSEKResultLen = 119
	minTDMAResultLen = 90
	minFlowLen       = 38
)

// Encode serializes a cacheable value into its versioned payload. The
// second result is false for values the wire format does not carry
// (unknown concrete types, custom error models): such values simply
// stay in-process.
func Encode(v any) ([]byte, bool) {
	e := &encoder{}
	switch r := v.(type) {
	case *rta.Result:
		e.u8(typeRTAResult)
		if !e.rtaResult(r) {
			return nil, false
		}
	case *rta.Report:
		e.u8(typeRTAReport)
		if !e.rtaReport(r) {
			return nil, false
		}
	case *osek.Report:
		e.u8(typeOSEKReport)
		e.osekReport(r)
	case *tdma.Report:
		e.u8(typeTDMAReport)
		e.tdmaReport(r)
	case *gateway.Report:
		e.u8(typeGatewayReport)
		e.gatewayReport(r)
	default:
		return nil, false
	}
	return e.b, true
}

// Decode parses a payload produced by Encode, returning the same
// pointer type that was encoded.
func Decode(b []byte) (any, error) {
	d := &decoder{b: b}
	tag := d.u8()
	var v any
	switch tag {
	case typeRTAResult:
		r := d.rtaResult()
		v = &r
	case typeRTAReport:
		v = d.rtaReport()
	case typeOSEKReport:
		v = d.osekReport()
	case typeTDMAReport:
		v = d.tdmaReport()
	case typeGatewayReport:
		v = d.gatewayReport()
	default:
		return nil, fmt.Errorf("cache: unknown payload type %d", tag)
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(d.b) {
		return nil, fmt.Errorf("cache: %d trailing bytes after payload", len(d.b)-d.off)
	}
	return v, nil
}

// encoder appends fixed-width little-endian fields.
type encoder struct{ b []byte }

func (e *encoder) u8(v byte)    { e.b = append(e.b, v) }
func (e *encoder) u32(v uint32) { e.b = binary.LittleEndian.AppendUint32(e.b, v) }
func (e *encoder) u64(v uint64) { e.b = binary.LittleEndian.AppendUint64(e.b, v) }
func (e *encoder) i64(v int64)  { e.u64(uint64(v)) }
func (e *encoder) dur(v time.Duration) {
	e.i64(int64(v))
}
func (e *encoder) f64(v float64) { e.u64(math.Float64bits(v)) }
func (e *encoder) bool(v bool) {
	if v {
		e.u8(1)
	} else {
		e.u8(0)
	}
}
func (e *encoder) str(s string) {
	e.u32(uint32(len(s)))
	e.b = append(e.b, s...)
}

func (e *encoder) model(m eventmodel.Model) {
	e.dur(m.Period)
	e.dur(m.Jitter)
	e.dur(m.DMin)
	e.bool(m.Sporadic)
}

func (e *encoder) frame(f can.Frame) {
	e.u32(uint32(f.ID))
	e.i64(int64(f.Format))
	e.i64(int64(f.DLC))
}

func (e *encoder) rtaMessage(m rta.Message) {
	e.str(m.Name)
	e.frame(m.Frame)
	e.model(m.Event)
	e.dur(m.Deadline)
}

// errors encodes the error-model interface; false means the model is a
// type the wire does not know, so the whole value must stay local.
func (e *encoder) errors(m errormodel.Model) bool {
	switch em := m.(type) {
	case nil:
		e.u8(errNil)
	case errormodel.None:
		e.u8(errNone)
	case errormodel.Sporadic:
		e.u8(errSporadic)
		e.dur(em.Interval)
	case errormodel.Burst:
		e.u8(errBurst)
		e.dur(em.Interval)
		e.i64(int64(em.Length))
		e.dur(em.Gap)
	default:
		return false
	}
	return true
}

func (e *encoder) rtaConfig(c rta.Config) bool {
	e.str(c.Bus.Name)
	e.i64(int64(c.Bus.BitRate))
	e.i64(int64(c.Stuffing))
	if !e.errors(c.Errors) {
		return false
	}
	e.i64(int64(c.DeadlineModel))
	e.bool(c.ClassicSingleInstance)
	e.dur(c.Horizon)
	return true
}

func (e *encoder) rtaResult(r *rta.Result) bool {
	e.rtaMessage(r.Message)
	e.i64(int64(r.Priority))
	e.dur(r.C)
	e.dur(r.BCRT)
	e.dur(r.Blocking)
	e.dur(r.BusyPeriod)
	e.i64(int64(r.Instances))
	e.dur(r.WCRT)
	e.dur(r.Deadline)
	e.bool(r.Schedulable)
	return true
}

func (e *encoder) rtaReport(r *rta.Report) bool {
	e.u32(uint32(len(r.Results)))
	for i := range r.Results {
		e.rtaResult(&r.Results[i])
	}
	e.f64(r.Utilization)
	return e.rtaConfig(r.Config)
}

func (e *encoder) osekTask(t osek.Task) {
	e.str(t.Name)
	e.i64(int64(t.Priority))
	e.dur(t.WCET)
	e.dur(t.BCET)
	e.model(t.Event)
	e.i64(int64(t.Kind))
	e.bool(t.ISR)
	e.dur(t.Deadline)
}

func (e *encoder) osekReport(r *osek.Report) {
	e.u32(uint32(len(r.Results)))
	for _, res := range r.Results {
		e.osekTask(res.Task)
		e.dur(res.C)
		e.dur(res.Blocking)
		e.i64(int64(res.Instances))
		e.dur(res.WCRT)
		e.dur(res.BCRT)
		e.dur(res.Deadline)
		e.bool(res.Schedulable)
	}
	e.f64(r.Utilization)
}

func (e *encoder) tdmaReport(r *tdma.Report) {
	e.u32(uint32(len(r.Results)))
	for _, res := range r.Results {
		e.str(res.Message.Name)
		e.frame(res.Message.Frame)
		e.model(res.Message.Event)
		e.dur(res.Message.Deadline)
		e.dur(res.C)
		e.dur(res.WCRT)
		e.i64(int64(res.BacklogInstances))
		e.dur(res.Deadline)
		e.bool(res.Schedulable)
	}
	e.dur(r.Cycle)
	e.f64(r.Utilization)
}

func (e *encoder) gatewayReport(r *gateway.Report) {
	e.i64(int64(r.Backlog))
	e.i64(int64(r.RequiredDepth))
	e.bool(r.Overflow)
	e.dur(r.Delay)
	e.u32(uint32(len(r.Flows)))
	for _, fr := range r.Flows {
		e.str(fr.Flow.Name)
		e.model(fr.Flow.Arrival)
		e.dur(fr.Delay)
		e.bool(fr.OverwriteLoss)
	}
	e.str(r.Config.Name)
	e.model(r.Config.Service)
	e.i64(int64(r.Config.Batch))
	e.i64(int64(r.Config.Policy))
	e.i64(int64(r.Config.QueueDepth))
}

// decoder reads fixed-width little-endian fields with bounds checking;
// the first failure latches err and every later read returns zeros.
type decoder struct {
	b   []byte
	off int
	err error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("cache: "+format, args...)
	}
}

func (d *decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || len(d.b)-d.off < n {
		d.fail("truncated payload: need %d bytes at offset %d of %d", n, d.off, len(d.b))
		return nil
	}
	s := d.b[d.off : d.off+n]
	d.off += n
	return s
}

func (d *decoder) u8() byte {
	s := d.take(1)
	if s == nil {
		return 0
	}
	return s[0]
}

func (d *decoder) u32() uint32 {
	s := d.take(4)
	if s == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(s)
}

func (d *decoder) u64() uint64 {
	s := d.take(8)
	if s == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(s)
}

func (d *decoder) i64() int64         { return int64(d.u64()) }
func (d *decoder) dur() time.Duration { return time.Duration(d.i64()) }
func (d *decoder) f64() float64       { return math.Float64frombits(d.u64()) }
func (d *decoder) bool() bool         { return d.u8() != 0 }

// len reads a length prefix counting elements of at least minSize
// encoded bytes each; a count the rest of the payload cannot hold
// fails before anything is allocated for it.
func (d *decoder) len(minSize int) int {
	n := d.u32()
	if rest := len(d.b) - d.off; uint64(n)*uint64(minSize) > uint64(rest) {
		d.fail("length %d exceeds the %d bytes left", n, rest)
		return 0
	}
	return int(n)
}

func (d *decoder) str() string {
	return string(d.take(d.len(1)))
}

func (d *decoder) model() eventmodel.Model {
	return eventmodel.Model{
		Period:   d.dur(),
		Jitter:   d.dur(),
		DMin:     d.dur(),
		Sporadic: d.bool(),
	}
}

func (d *decoder) frame() can.Frame {
	return can.Frame{
		ID:     can.ID(d.u32()),
		Format: can.IDFormat(d.i64()),
		DLC:    int(d.i64()),
	}
}

func (d *decoder) rtaMessage() rta.Message {
	return rta.Message{
		Name:     d.str(),
		Frame:    d.frame(),
		Event:    d.model(),
		Deadline: d.dur(),
	}
}

func (d *decoder) errors() errormodel.Model {
	switch tag := d.u8(); tag {
	case errNil:
		return nil
	case errNone:
		return errormodel.None{}
	case errSporadic:
		return errormodel.Sporadic{Interval: d.dur()}
	case errBurst:
		return errormodel.Burst{Interval: d.dur(), Length: int(d.i64()), Gap: d.dur()}
	default:
		d.fail("unknown error-model tag %d", tag)
		return nil
	}
}

func (d *decoder) rtaConfig() rta.Config {
	return rta.Config{
		Bus:                   can.Bus{Name: d.str(), BitRate: int(d.i64())},
		Stuffing:              can.Stuffing(d.i64()),
		Errors:                d.errors(),
		DeadlineModel:         rta.DeadlineModel(d.i64()),
		ClassicSingleInstance: d.bool(),
		Horizon:               d.dur(),
	}
}

func (d *decoder) rtaResult() rta.Result {
	return rta.Result{
		Message:     d.rtaMessage(),
		Priority:    int(d.i64()),
		C:           d.dur(),
		BCRT:        d.dur(),
		Blocking:    d.dur(),
		BusyPeriod:  d.dur(),
		Instances:   int(d.i64()),
		WCRT:        d.dur(),
		Deadline:    d.dur(),
		Schedulable: d.bool(),
	}
}

func (d *decoder) rtaReport() *rta.Report {
	n := d.len(minRTAResultLen)
	rep := &rta.Report{}
	if d.err == nil && n > 0 {
		rep.Results = make([]rta.Result, 0, n)
	}
	for i := 0; i < n && d.err == nil; i++ {
		rep.Results = append(rep.Results, d.rtaResult())
	}
	rep.Utilization = d.f64()
	rep.Config = d.rtaConfig()
	return rep
}

func (d *decoder) osekTask() osek.Task {
	return osek.Task{
		Name:     d.str(),
		Priority: int(d.i64()),
		WCET:     d.dur(),
		BCET:     d.dur(),
		Event:    d.model(),
		Kind:     osek.Preemption(d.i64()),
		ISR:      d.bool(),
		Deadline: d.dur(),
	}
}

func (d *decoder) osekReport() *osek.Report {
	n := d.len(minOSEKResultLen)
	rep := &osek.Report{}
	if d.err == nil && n > 0 {
		rep.Results = make([]osek.Result, 0, n)
	}
	for i := 0; i < n && d.err == nil; i++ {
		rep.Results = append(rep.Results, osek.Result{
			Task:        d.osekTask(),
			C:           d.dur(),
			Blocking:    d.dur(),
			Instances:   int(d.i64()),
			WCRT:        d.dur(),
			BCRT:        d.dur(),
			Deadline:    d.dur(),
			Schedulable: d.bool(),
		})
	}
	rep.Utilization = d.f64()
	return rep
}

func (d *decoder) tdmaReport() *tdma.Report {
	n := d.len(minTDMAResultLen)
	rep := &tdma.Report{}
	if d.err == nil && n > 0 {
		rep.Results = make([]tdma.Result, 0, n)
	}
	for i := 0; i < n && d.err == nil; i++ {
		rep.Results = append(rep.Results, tdma.Result{
			Message: tdma.Message{
				Name:     d.str(),
				Frame:    d.frame(),
				Event:    d.model(),
				Deadline: d.dur(),
			},
			C:                d.dur(),
			WCRT:             d.dur(),
			BacklogInstances: int(d.i64()),
			Deadline:         d.dur(),
			Schedulable:      d.bool(),
		})
	}
	rep.Cycle = d.dur()
	rep.Utilization = d.f64()
	return rep
}

func (d *decoder) gatewayReport() *gateway.Report {
	rep := &gateway.Report{
		Backlog:       int(d.i64()),
		RequiredDepth: int(d.i64()),
		Overflow:      d.bool(),
		Delay:         d.dur(),
	}
	n := d.len(minFlowLen)
	if d.err == nil && n > 0 {
		rep.Flows = make([]gateway.FlowResult, 0, n)
	}
	for i := 0; i < n && d.err == nil; i++ {
		rep.Flows = append(rep.Flows, gateway.FlowResult{
			Flow:          gateway.Flow{Name: d.str(), Arrival: d.model()},
			Delay:         d.dur(),
			OverwriteLoss: d.bool(),
		})
	}
	rep.Config = gateway.Config{
		Name:       d.str(),
		Service:    d.model(),
		Batch:      int(d.i64()),
		Policy:     gateway.Policy(d.i64()),
		QueueDepth: int(d.i64()),
	}
	return rep
}
