package serve

// The encoders of the serving tier and the pooled scratch they write on. A
// response built as a map[string]any and handed to encoding/json pays for
// interface boxing, reflection, and one []byte per geometry ring — costs that
// dominate the request cycle once the engine's own scans coalesce. Here every
// hot response is written through a reused bufio.Writer by hand-built JSON
// appenders that replicate encoding/json's byte output exactly (float
// formatting, string escaping, omitempty semantics), so which encoder wrote a
// response is invisible on the wire.
//
// Geometry streams: rings are encoded one at a time into the pooled scratch
// and written through the 4 KiB bufio window, so a huge contour or isoband
// payload crosses the socket in chunks and never materializes as one
// allocation — the buffered and streamed bytes are identical by construction
// and asserted by TestStreamedGeometryByteIdentity.

import (
	"bufio"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"unicode/utf8"

	"fielddb"
	"fielddb/internal/storage"
)

// codecBufSize is the bufio window of the response path: big enough to hold
// every non-geometry response in one flush, small enough that streamed
// geometry keeps crossing the socket instead of accumulating.
const codecBufSize = 4096

// encoder hides a wire format from the handlers: admit binds the negotiated
// one to the request's codec, and a handler answers through it without knowing
// which. Each method writes one complete response — headers, status, body —
// for one endpoint's shape.
type encoder interface {
	result(field string, res *fielddb.Result, geometry bool)
	point(field string, x, y, value float64)
	contour(field string, level float64, cr *fielddb.ContourResult, geometry bool)
	batch(field string, results []*fielddb.Result, st *fielddb.BatchStats, batchErr error, geometry bool)
	aggregate(field string, res *fielddb.AggregateResult, degraded bool)
	update(field string, st *fielddb.UpdateStats)
	and(res *fielddb.ConjunctiveResult, geometry bool)
	describe(fi WireFieldInfo)
	list(infos []WireFieldInfo)
	fail(status int, msg string)
}

// jsonCodec (this file) and binCodec (wire.go) are the two encoders, both
// views of one *codec: binding either to a request allocates nothing.
type (
	jsonCodec struct{ *codec }
	binCodec  struct{ *codec }
)

// codec is the pooled scratch of the response path: the response it targets,
// the buffered writer every response streams through, a JSON encoder bound to
// it (for the cold endpoints that still marshal structs), and reusable
// byte/float/slice scratch for hand-built JSON, binary frames, packed columns,
// and batch decode.
type codec struct {
	w   http.ResponseWriter
	bw  *bufio.Writer
	enc *json.Encoder

	buf  []byte    // hand-built JSON fragments and binary frame headers
	col  []byte    // packed-column scratch (binary wire format)
	vals []float64 // column value scratch (binary wire format)

	// Batch request decode scratch: the body bytes and the interval slices
	// the decoder fills (capacity reused across requests).
	body      []byte
	pairs     [][2]float64
	intervals []fielddb.Interval

	poisoned bool // a json.Encoder error latches; drop instead of repooling
}

// requestPool recycles requests, and with them their codecs' scratch.
var requestPool = sync.Pool{
	New: func() any {
		q := &request{codec: codec{
			bw:  bufio.NewWriterSize(io.Discard, codecBufSize),
			buf: make([]byte, 0, 512),
		}}
		q.enc = json.NewEncoder(q.bw)
		q.enc.SetEscapeHTML(false)
		return q
	},
}

// lease takes a request from the pool with its codec targeting w.
func lease(w http.ResponseWriter) *request {
	q := requestPool.Get().(*request)
	q.w = w
	q.bw.Reset(w)
	return q
}

// put flushes the response and returns the request to the pool, unless an
// encoder error poisoned its codec.
func (q *request) put() {
	// A flush error means the client went away mid-write; the next Reset
	// clears it, so the codec stays reusable unless the json.Encoder (which
	// latches errors forever) saw it.
	_ = q.bw.Flush()
	q.bw.Reset(io.Discard)
	if q.poisoned {
		return
	}
	q.w, q.r, q.out, q.degraded = nil, nil, nil, false
	requestPool.Put(q)
}

// header starts a response of the given content type.
func (c *codec) header(mime string, status int) {
	c.w.Header().Set("Content-Type", mime)
	c.w.WriteHeader(status)
}

// marshal writes v as a whole JSON response through the pooled encoder (the
// cold endpoints, whose payloads are metadata, not per-request hot-path work:
// listings, metrics, traces, conjunctions).
func (c *codec) marshal(status int, v any) {
	c.header("application/json", status)
	if err := c.enc.Encode(v); err != nil {
		c.poisoned = true
	}
}

// appendJSONFloat appends f exactly as encoding/json renders a float64:
// shortest representation, %f form except for magnitudes outside
// [1e-6, 1e21), and exponents stripped of their leading zero. Callers
// guarantee finite values — the facade's validation rejects NaN/±Inf before
// any query runs.
func appendJSONFloat(b []byte, f float64) []byte {
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// Clean up e-09 to e-9, as encoding/json does.
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// jsonSafe marks the bytes encoding/json leaves unescaped with EscapeHTML
// disabled: everything printable except the quote and the backslash.
func jsonSafe(b byte) bool { return b >= 0x20 && b != '"' && b != '\\' }

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a JSON string literal, byte-identical to
// encoding/json with SetEscapeHTML(false): named escapes for \n \r \t,
// \u00xx for other control bytes, � for invalid UTF-8, and  /
// escaped for JavaScript embedding.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if jsonSafe(c) {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', 'f', 'f', 'f', 'd')
			i += size
			start = i
			continue
		}
		if r == ' ' || r == ' ' {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// appendIOStatsView appends the WireIO object for a stats block — shared by
// the value-query, contour and aggregate envelopes, whose results carry the
// same deterministic I/O accounting.
func appendIOStatsView(b []byte, io storage.Stats) []byte {
	b = append(b, `{"reads":`...)
	b = strconv.AppendInt(b, int64(io.Reads), 10)
	b = append(b, `,"seq_reads":`...)
	b = strconv.AppendInt(b, int64(io.SeqReads), 10)
	b = append(b, `,"rand_reads":`...)
	b = strconv.AppendInt(b, int64(io.RandReads), 10)
	b = append(b, `,"cache_hits":`...)
	b = strconv.AppendInt(b, int64(io.CacheHits), 10)
	b = append(b, `,"sim_elapsed_ns":`...)
	b = strconv.AppendInt(b, int64(io.SimElapsed), 10)
	return append(b, '}')
}

// appendResultOpen appends the WireResult object for res up to (and
// excluding) its optional geometry member and closing brace; the caller
// streams geometry and closes.
func appendResultOpen(b []byte, res *fielddb.Result) []byte {
	b = append(b, `{"lo":`...)
	b = appendJSONFloat(b, res.Query.Lo)
	b = append(b, `,"hi":`...)
	b = appendJSONFloat(b, res.Query.Hi)
	b = append(b, `,"candidate_groups":`...)
	b = strconv.AppendInt(b, int64(res.CandidateGroups), 10)
	b = append(b, `,"cells_fetched":`...)
	b = strconv.AppendInt(b, int64(res.CellsFetched), 10)
	b = append(b, `,"cells_matched":`...)
	b = strconv.AppendInt(b, int64(res.CellsMatched), 10)
	b = append(b, `,"regions":`...)
	b = strconv.AppendInt(b, int64(res.RegionCount), 10)
	b = append(b, `,"isolines":`...)
	b = strconv.AppendInt(b, int64(res.IsolineCount), 10)
	b = append(b, `,"area":`...)
	b = appendJSONFloat(b, res.Area)
	b = append(b, `,"io":`...)
	return appendIOStatsView(b, res.IO)
}

// streamRings writes a [][2]float64-shaped JSON array of rings through the
// buffered writer, one ring per Write so bufio chunks the payload. The
// element type is fielddb.Polygon for isoband regions and contour polylines
// alike.
func (c *codec) streamRings(rings []fielddb.Polygon) {
	c.bw.WriteByte('[')
	for i, ring := range rings {
		b := c.buf[:0]
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		for j, p := range ring {
			if j > 0 {
				b = append(b, ',')
			}
			b = append(b, '[')
			b = appendJSONFloat(b, p.X)
			b = append(b, ',')
			b = appendJSONFloat(b, p.Y)
			b = append(b, ']')
			// Bound the fragment: hand the ring to bufio in slices so one
			// giant ring cannot balloon the scratch buffer.
			if len(b) >= codecBufSize {
				c.bw.Write(b)
				b = b[:0]
			}
		}
		b = append(b, ']')
		c.emit(b)
	}
	c.bw.WriteByte(']')
}

// emit writes the scratch fragment b and keeps its capacity for the next one.
func (c *codec) emit(b []byte) {
	c.bw.Write(b)
	c.buf = b[:0]
}

// open starts a 200 response and returns its envelope's leading
// {"field":<name> member in the scratch buffer.
func (c jsonCodec) open(field string) []byte {
	c.header("application/json", http.StatusOK)
	return appendJSONString(append(c.buf[:0], `{"field":`...), field)
}

// result streams the {"field":...,"result":...} response of the
// range/above/below endpoints. Geometry is included only when requested and
// non-empty, matching the omitempty semantics of the struct encoding.
func (c jsonCodec) result(field string, res *fielddb.Result, geometry bool) {
	b := c.open(field)
	b = append(b, `,"result":`...)
	b = appendResultOpen(b, res)
	c.emit(b)
	if geometry && len(res.Regions) > 0 {
		c.bw.WriteString(`,"geometry":`)
		c.streamRings(res.Regions)
	}
	c.bw.WriteString("}}\n")
}

// point streams the /point response.
func (c jsonCodec) point(field string, x, y, value float64) {
	b := c.open(field)
	b = append(b, `,"x":`...)
	b = appendJSONFloat(b, x)
	b = append(b, `,"y":`...)
	b = appendJSONFloat(b, y)
	b = append(b, `,"value":`...)
	b = appendJSONFloat(b, value)
	b = append(b, "}\n"...)
	c.emit(b)
}

// contour streams the /contour response; polylines stream like geometry
// rings.
func (c jsonCodec) contour(field string, level float64, cr *fielddb.ContourResult, geometry bool) {
	b := c.open(field)
	b = append(b, `,"level":`...)
	b = appendJSONFloat(b, level)
	b = append(b, `,"polylines":`...)
	b = strconv.AppendInt(b, int64(len(cr.Polylines)), 10)
	b = append(b, `,"io":`...)
	b = appendIOStatsView(b, cr.IO)
	c.emit(b)
	if geometry && len(cr.Polylines) > 0 {
		c.bw.WriteString(`,"geometry":`)
		c.streamRings(polylinesAsPolygons(cr.Polylines))
	}
	c.bw.WriteString("}\n")
}

// polylinesAsPolygons reinterprets contour polylines as the ring slice the
// streamer walks. Polyline and Polygon are both []Point, so this is a
// conversion, not a copy.
func polylinesAsPolygons(pls []fielddb.Polyline) []fielddb.Polygon {
	out := make([]fielddb.Polygon, 0, 16)
	if cap(out) < len(pls) {
		out = make([]fielddb.Polygon, 0, len(pls))
	}
	for _, pl := range pls {
		out = append(out, fielddb.Polygon(pl))
	}
	return out
}

// batch streams the /batch response: positional member results (null for
// failed members), optional batch-level shared-scan stats, and the first
// member error when the batch partially failed.
func (c jsonCodec) batch(field string, results []*fielddb.Result, st *fielddb.BatchStats, batchErr error, geometry bool) {
	b := c.open(field)
	b = append(b, `,"results":[`...)
	c.emit(b)
	for i, res := range results {
		b = c.buf[:0]
		if i > 0 {
			b = append(b, ',')
		}
		if res == nil {
			b = append(b, "null"...)
			c.emit(b)
			continue
		}
		b = appendResultOpen(b, res)
		c.emit(b)
		if geometry && len(res.Regions) > 0 {
			c.bw.WriteString(`,"geometry":`)
			c.streamRings(res.Regions)
		}
		c.bw.WriteByte('}')
	}
	b = c.buf[:0]
	b = append(b, ']')
	if st != nil {
		b = append(b, `,"batch":{"size":`...)
		b = strconv.AppendInt(b, int64(st.Size), 10)
		b = append(b, `,"physical_reads":`...)
		b = strconv.AppendInt(b, int64(st.Physical.Reads), 10)
		b = append(b, `,"physical_sim_ns":`...)
		b = strconv.AppendInt(b, int64(st.Physical.SimElapsed), 10)
		b = append(b, `,"attributed_reads":`...)
		b = strconv.AppendInt(b, int64(st.AttributedReads), 10)
		b = append(b, `,"pages_saved":`...)
		b = strconv.AppendInt(b, int64(st.PagesSaved), 10)
		b = append(b, '}')
	}
	if batchErr != nil {
		b = append(b, `,"error":`...)
		b = appendJSONString(b, batchErr.Error())
	}
	b = append(b, "}\n"...)
	c.emit(b)
}

// aggregate streams the /aggregate response. max_err encodes as null when the
// resolved tolerance is +Inf (a degraded request accepted any certified
// bound) — JSON has no Infinity literal, and null states the same fact: no
// finite tolerance constrained this answer.
func (c jsonCodec) aggregate(field string, res *fielddb.AggregateResult, degraded bool) {
	b := c.open(field)
	b = append(b, `,"result":{"lo":`...)
	b = appendJSONFloat(b, res.Query.Lo)
	b = append(b, `,"hi":`...)
	b = appendJSONFloat(b, res.Query.Hi)
	b = append(b, `,"max_err":`...)
	if math.IsInf(res.MaxErr, 1) {
		b = append(b, "null"...)
	} else {
		b = appendJSONFloat(b, res.MaxErr)
	}
	b = append(b, `,"count":`...)
	b = appendJSONFloat(b, res.Count)
	b = append(b, `,"count_bound":`...)
	b = appendJSONFloat(b, res.CountBound)
	b = append(b, `,"area":`...)
	b = appendJSONFloat(b, res.Area)
	b = append(b, `,"area_bound":`...)
	b = appendJSONFloat(b, res.AreaBound)
	b = append(b, `,"fraction":`...)
	b = appendJSONFloat(b, res.Fraction)
	b = append(b, `,"fraction_bound":`...)
	b = appendJSONFloat(b, res.FractionBound)
	b = append(b, `,"total_cells":`...)
	b = appendJSONFloat(b, res.TotalCells)
	b = append(b, `,"total_area":`...)
	b = appendJSONFloat(b, res.TotalArea)
	b = append(b, `,"approx":`...)
	b = strconv.AppendBool(b, res.Approx)
	b = append(b, `,"fallback":`...)
	b = strconv.AppendBool(b, res.Fallback)
	b = append(b, `,"degraded":`...)
	b = strconv.AppendBool(b, degraded)
	b = append(b, `,"io":`...)
	b = appendIOStatsView(b, res.IO)
	b = append(b, "}}\n"...)
	c.emit(b)
}

// update streams the /update response.
func (c jsonCodec) update(field string, st *fielddb.UpdateStats) {
	b := c.open(field)
	b = append(b, `,"epoch":`...)
	b = strconv.AppendUint(b, st.Epoch, 10)
	b = append(b, `,"samples_applied":`...)
	b = strconv.AppendInt(b, int64(st.SamplesApplied), 10)
	b = append(b, `,"cells_touched":`...)
	b = strconv.AppendInt(b, int64(st.CellsTouched), 10)
	b = append(b, `,"pages_written":`...)
	b = strconv.AppendInt(b, int64(st.PagesWritten), 10)
	b = append(b, `,"regrouped":`...)
	b = strconv.AppendBool(b, st.Regrouped)
	b = append(b, "}\n"...)
	c.emit(b)
}

// and marshals the /v1/and response: a cold endpoint, so the per-field
// results go through the reference struct encoding. Unlike the per-result
// member, "geometry" is present whenever requested, empty or not.
func (c jsonCodec) and(res *fielddb.ConjunctiveResult, geometry bool) {
	perField := make([]WireResult, len(res.PerField))
	for i, pr := range res.PerField {
		perField[i] = viewResult(pr, false)
	}
	out := map[string]any{
		"regions":   len(res.Regions),
		"area":      res.Area,
		"per_field": perField,
	}
	if geometry {
		out["geometry"] = viewRings(res.Regions)
	}
	c.marshal(http.StatusOK, out)
}

// describe marshals one listing entry.
func (c jsonCodec) describe(fi WireFieldInfo) { c.marshal(http.StatusOK, fi) }

// list marshals the field listing.
func (c jsonCodec) list(infos []WireFieldInfo) {
	c.marshal(http.StatusOK, map[string]any{"fields": infos})
}

// fail streams the error envelope for status.
func (c jsonCodec) fail(status int, msg string) {
	c.header("application/json", status)
	b := append(c.buf[:0], `{"error":{"status":`...)
	b = strconv.AppendInt(b, int64(status), 10)
	b = append(b, `,"message":`...)
	b = appendJSONString(b, msg)
	b = append(b, "}}\n"...)
	c.emit(b)
}

// readBody drains r into the pooled body scratch, bounded by maxBytes.
func (c *codec) readBody(r io.Reader, maxBytes int64) ([]byte, error) {
	c.body = c.body[:0]
	lr := io.LimitReader(r, maxBytes)
	for {
		if len(c.body) == cap(c.body) {
			c.body = append(c.body, 0)[:len(c.body)]
		}
		n, err := lr.Read(c.body[len(c.body):cap(c.body)])
		c.body = c.body[:len(c.body)+n]
		if err == io.EOF {
			return c.body, nil
		}
		if err != nil {
			return nil, err
		}
	}
}
