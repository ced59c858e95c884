package serve

// The compact binary wire format of the serving tier, negotiated per request
// with "Accept: application/x-fielddb-bin". Frames are little-endian and
// versioned:
//
//	header   : magic "FWB1" | version u8 = 1 | kind u8
//	string   : u16 byte length | bytes
//	ioStats  : reads u32 | seq u32 | rand u32 | hits u32 | sim_ns i64   (24 B)
//	result   : lo f64 | hi f64 | cand u32 | fetched u32 | matched u32 |
//	           regions u32 | isolines u32 | area f64 | ioStats         (68 B)
//	geometry : present u8; if 1: nrings u32 | npoints u32 |
//	           ring-length chunks | X chunks | Y chunks. Each sequence is
//	           split into ⌈n/4096⌉ packed columns of up to 4096 values in
//	           order (ring lengths bit-cast u32): chunking amortizes the
//	           column planner and bounds the encoder's scratch, while
//	           whole-response columns keep the per-ring overhead of the
//	           typical many-tiny-rings answer off the wire.
//	column   : FSC2 packed float column (storage.EncodeFloatColumn) — the
//	           same predictor/zigzag/width-class codec as the on-disk
//	           interval sidecar; integer columns ride it bit-cast through
//	           math.Float64frombits.
//
// Frame kinds:
//
//	1 result   : field string | result | geometry
//	2 point    : field string | x f64 | y f64 | value f64
//	3 contour  : field string | level f64 | npolylines u32 | ioStats | geometry
//	4 batch    : field string | count u32 | presence bitmap ⌈count/8⌉ B |
//	             hasStats u8 [size u32 | phys_reads u32 | phys_sim_ns i64 |
//	             attributed u32 | saved u32] | errmsg string |
//	             13 packed stat columns over present members
//	             (lo hi cand fetched matched regions isolines area
//	              reads seq rand hits sim_ns) | per present member: geometry
//	5 error    : status u16 | message string
//	6 and      : nregions u32 | area f64 | nper u32 | result ×nper | geometry
//	7 update   : field string | epoch u64 | samples u32 | cells u32 |
//	             pages u32 | regrouped u8
//	8 describe : fieldInfo
//	9 list     : count u32 | fieldInfo ×count
//	10 aggregate: field string | lo f64 | hi f64 | max_err f64 | count f64 |
//	             count_bound f64 | area f64 | area_bound f64 | fraction f64 |
//	             fraction_bound f64 | total_cells f64 | total_area f64 |
//	             approx u8 | fallback u8 | degraded u8 | ioStats
//	             (max_err rides f64 natively, so the degraded mode's +Inf —
//	             JSON's null — needs no special case)
//	fieldInfo  : name string | method string | cells u32 | cell_pages u32 |
//	             index_pages u32 | sidecar_pages u32 | groups u32 |
//	             tree_height u32 | value_lo f64 | value_hi f64 | writable u8
//
// JSON stays the default; the binary path exists because at thousands of
// connections the JSON text of interval stats and geometry rings dominates
// the request cycle. Both encoders read the same facade results, so decoded
// frames are value-identical to the JSON envelopes (asserted endpoint by
// endpoint in wire_test.go).

import (
	"encoding/binary"
	"fmt"
	"math"
	"net/http"

	"fielddb"
	"fielddb/internal/storage"
)

// WireMIME is the Accept / Content-Type token of the binary format.
const WireMIME = "application/x-fielddb-bin"

const (
	wireMagic   = "FWB1"
	wireVersion = 1

	frameResult    byte = 1
	framePoint     byte = 2
	frameContour   byte = 3
	frameBatch     byte = 4
	frameError     byte = 5
	frameAnd       byte = 6
	frameUpdate    byte = 7
	frameDescribe  byte = 8
	frameList      byte = 9
	frameAggregate byte = 10
)

// batchColumns is the number of packed per-member stat columns in a batch
// frame.
const batchColumns = 13

// ---------------------------------------------------------------------------
// Encoding (server side). Frames are appended into the codec's pooled scratch
// and streamed through its bufio.Writer; geometry rings flush one at a time,
// so large payloads never materialize.

func appendString(b []byte, s string) []byte {
	if len(s) > math.MaxUint16 {
		s = s[:math.MaxUint16]
	}
	b = binary.LittleEndian.AppendUint16(b, uint16(len(s)))
	return append(b, s...)
}

func appendU32(b []byte, v int) []byte {
	return binary.LittleEndian.AppendUint32(b, uint32(v))
}

func appendI64(b []byte, v int64) []byte {
	return binary.LittleEndian.AppendUint64(b, uint64(v))
}

func appendF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

func appendIOStats(b []byte, st storage.Stats) []byte {
	b = appendU32(b, st.Reads)
	b = appendU32(b, st.SeqReads)
	b = appendU32(b, st.RandReads)
	b = appendU32(b, st.CacheHits)
	return appendI64(b, int64(st.SimElapsed))
}

func appendResultCore(b []byte, res *fielddb.Result) []byte {
	b = appendF64(b, res.Query.Lo)
	b = appendF64(b, res.Query.Hi)
	b = appendU32(b, res.CandidateGroups)
	b = appendU32(b, res.CellsFetched)
	b = appendU32(b, res.CellsMatched)
	b = appendU32(b, res.RegionCount)
	b = appendU32(b, res.IsolineCount)
	b = appendF64(b, res.Area)
	return appendIOStats(b, res.IO)
}

// packColumn encodes vals as one length-prefixed FSC2 column into the codec's
// column scratch and returns the prefixed block. Empty columns encode as a
// zero length prefix.
func (c *codec) packColumn(vals []float64) []byte {
	if len(vals) == 0 {
		var lenbuf [4]byte
		return lenbuf[:]
	}
	need := 4 + storage.MaxFloatColumnSize(len(vals))
	if cap(c.col) < need {
		c.col = make([]byte, need)
	}
	c.col = c.col[:need]
	clear(c.col) // the bit packer ORs into place
	n := storage.EncodeFloatColumn(c.col[4:], vals)
	binary.LittleEndian.PutUint32(c.col, uint32(n))
	return c.col[:4+n]
}

// wireGeomChunk is the value count of one packed geometry column chunk:
// large enough to amortize the column planner (answers are typically tens of
// thousands of 3-5 point rings — per-ring columns spend more time planning
// than packing), small enough to bound the codec's pooled scratch.
const wireGeomChunk = 4096

// flushChunk packs and writes vals when it reached the chunk size (or force
// is set), returning the (possibly emptied) accumulator.
func (c *codec) flushChunk(vals []float64, force bool) []float64 {
	if len(vals) == wireGeomChunk || (force && len(vals) > 0) {
		c.bw.Write(c.packColumn(vals))
		return vals[:0]
	}
	return vals
}

// streamRingsBin writes a binary geometry block for rings: the ring count and
// total point count, then the ring lengths, X coordinates, and Y coordinates
// as sequences of packed column chunks, flushed chunk by chunk through the
// buffered writer so large payloads never materialize.
func (c *codec) streamRingsBin(rings []fielddb.Polygon) {
	npoints := 0
	for _, ring := range rings {
		npoints += len(ring)
	}
	b := appendU32(c.buf[:0], len(rings))
	b = appendU32(b, npoints)
	c.emit(b)
	if cap(c.vals) < wireGeomChunk {
		c.vals = make([]float64, 0, wireGeomChunk)
	}
	vals := c.vals[:0]
	for _, ring := range rings {
		vals = append(vals, math.Float64frombits(uint64(len(ring))))
		vals = c.flushChunk(vals, false)
	}
	vals = c.flushChunk(vals, true)
	for axis := 0; axis < 2; axis++ {
		for _, ring := range rings {
			for _, p := range ring {
				v := p.X
				if axis == 1 {
					v = p.Y
				}
				vals = append(vals, v)
				vals = c.flushChunk(vals, false)
			}
		}
		vals = c.flushChunk(vals, true)
	}
	c.vals = vals[:0]
}

// streamGeometryBin writes the optional geometry block: a presence byte, then
// the rings when present.
func (c *codec) streamGeometryBin(rings []fielddb.Polygon, present bool) {
	if !present {
		c.bw.WriteByte(0)
		return
	}
	c.bw.WriteByte(1)
	c.streamRingsBin(rings)
}

// open starts a binary response and returns its frame header in the scratch
// buffer.
func (c binCodec) open(status int, kind byte) []byte {
	c.header(WireMIME, status)
	b := append(c.buf[:0], wireMagic...)
	return append(b, wireVersion, kind)
}

// result streams a kind-1 frame for the range/above/below endpoints.
func (c binCodec) result(field string, res *fielddb.Result, geometry bool) {
	b := c.open(http.StatusOK, frameResult)
	b = appendString(b, field)
	b = appendResultCore(b, res)
	c.emit(b)
	c.streamGeometryBin(res.Regions, geometry && len(res.Regions) > 0)
}

// point streams a kind-2 frame.
func (c binCodec) point(field string, x, y, value float64) {
	b := c.open(http.StatusOK, framePoint)
	b = appendString(b, field)
	b = appendF64(b, x)
	b = appendF64(b, y)
	b = appendF64(b, value)
	c.emit(b)
}

// contour streams a kind-3 frame.
func (c binCodec) contour(field string, level float64, cr *fielddb.ContourResult, geometry bool) {
	b := c.open(http.StatusOK, frameContour)
	b = appendString(b, field)
	b = appendF64(b, level)
	b = appendU32(b, len(cr.Polylines))
	b = appendIOStats(b, cr.IO)
	c.emit(b)
	c.streamGeometryBin(polylinesAsPolygons(cr.Polylines), geometry && len(cr.Polylines) > 0)
}

// batch streams a kind-4 frame: a presence bitmap over members, optional
// shared-scan stats, and the member stats transposed into packed columns —
// the wire-side mirror of the interval sidecar's layout.
func (c binCodec) batch(field string, results []*fielddb.Result, st *fielddb.BatchStats, batchErr error, geometry bool) {
	b := c.open(http.StatusOK, frameBatch)
	b = appendString(b, field)
	b = appendU32(b, len(results))
	present := 0
	bitmapAt := len(b)
	b = append(b, make([]byte, (len(results)+7)/8)...)
	for i, res := range results {
		if res != nil {
			b[bitmapAt+i/8] |= 1 << (i % 8)
			present++
		}
	}
	if st != nil {
		b = append(b, 1)
		b = appendU32(b, st.Size)
		b = appendU32(b, st.Physical.Reads)
		b = appendI64(b, int64(st.Physical.SimElapsed))
		b = appendU32(b, st.AttributedReads)
		b = appendU32(b, st.PagesSaved)
	} else {
		b = append(b, 0)
	}
	msg := ""
	if batchErr != nil {
		msg = batchErr.Error()
	}
	b = appendString(b, msg)
	c.emit(b)

	if present > 0 {
		if cap(c.vals) < present {
			c.vals = make([]float64, present)
		}
		col := c.vals[:present]
		for ci := 0; ci < batchColumns; ci++ {
			j := 0
			for _, res := range results {
				if res == nil {
					continue
				}
				col[j] = batchColumnValue(ci, res)
				j++
			}
			c.bw.Write(c.packColumn(col))
		}
	}
	for _, res := range results {
		if res == nil {
			continue
		}
		c.streamGeometryBin(res.Regions, geometry && len(res.Regions) > 0)
	}
}

// batchColumnValue extracts column ci of the batch stat transpose from res.
// Integer stats are bit-cast so the delta predictor sees small residuals on
// near-constant counters.
func batchColumnValue(ci int, res *fielddb.Result) float64 {
	switch ci {
	case 0:
		return res.Query.Lo
	case 1:
		return res.Query.Hi
	case 2:
		return math.Float64frombits(uint64(res.CandidateGroups))
	case 3:
		return math.Float64frombits(uint64(res.CellsFetched))
	case 4:
		return math.Float64frombits(uint64(res.CellsMatched))
	case 5:
		return math.Float64frombits(uint64(res.RegionCount))
	case 6:
		return math.Float64frombits(uint64(res.IsolineCount))
	case 7:
		return res.Area
	case 8:
		return math.Float64frombits(uint64(res.IO.Reads))
	case 9:
		return math.Float64frombits(uint64(res.IO.SeqReads))
	case 10:
		return math.Float64frombits(uint64(res.IO.RandReads))
	case 11:
		return math.Float64frombits(uint64(res.IO.CacheHits))
	default:
		return math.Float64frombits(uint64(int64(res.IO.SimElapsed)))
	}
}

// fail streams a kind-5 frame. The HTTP status is carried both on the
// response line and in the frame, so a decoder never needs the transport.
func (c binCodec) fail(status int, msg string) {
	b := c.open(status, frameError)
	b = binary.LittleEndian.AppendUint16(b, uint16(status))
	b = appendString(b, msg)
	c.emit(b)
}

// and streams a kind-6 frame.
func (c binCodec) and(res *fielddb.ConjunctiveResult, geometry bool) {
	b := c.open(http.StatusOK, frameAnd)
	b = appendU32(b, len(res.Regions))
	b = appendF64(b, res.Area)
	b = appendU32(b, len(res.PerField))
	c.emit(b)
	for _, pr := range res.PerField {
		b = appendResultCore(c.buf[:0], pr)
		c.emit(b)
	}
	c.streamGeometryBin(res.Regions, geometry && len(res.Regions) > 0)
}

// aggregate streams a kind-10 frame.
func (c binCodec) aggregate(field string, res *fielddb.AggregateResult, degraded bool) {
	b := c.open(http.StatusOK, frameAggregate)
	b = appendString(b, field)
	b = appendF64(b, res.Query.Lo)
	b = appendF64(b, res.Query.Hi)
	b = appendF64(b, res.MaxErr)
	b = appendF64(b, res.Count)
	b = appendF64(b, res.CountBound)
	b = appendF64(b, res.Area)
	b = appendF64(b, res.AreaBound)
	b = appendF64(b, res.Fraction)
	b = appendF64(b, res.FractionBound)
	b = appendF64(b, res.TotalCells)
	b = appendF64(b, res.TotalArea)
	b = append(b, boolByte(res.Approx), boolByte(res.Fallback), boolByte(degraded))
	b = appendIOStats(b, res.IO)
	c.emit(b)
}

func boolByte(v bool) byte {
	if v {
		return 1
	}
	return 0
}

// update streams a kind-7 frame.
func (c binCodec) update(field string, st *fielddb.UpdateStats) {
	b := c.open(http.StatusOK, frameUpdate)
	b = appendString(b, field)
	b = binary.LittleEndian.AppendUint64(b, st.Epoch)
	b = appendU32(b, st.SamplesApplied)
	b = appendU32(b, st.CellsTouched)
	b = appendU32(b, st.PagesWritten)
	c.emit(append(b, boolByte(st.Regrouped)))
}

func appendFieldInfo(b []byte, fi WireFieldInfo) []byte {
	b = appendString(b, fi.Name)
	b = appendString(b, fi.Method)
	b = appendU32(b, fi.Cells)
	b = appendU32(b, fi.CellPages)
	b = appendU32(b, fi.IndexPages)
	b = appendU32(b, fi.SidecarPages)
	b = appendU32(b, fi.Groups)
	b = appendU32(b, fi.TreeHeight)
	b = appendF64(b, fi.ValueLo)
	b = appendF64(b, fi.ValueHi)
	return append(b, boolByte(fi.Writable))
}

// describe streams a kind-8 frame.
func (c binCodec) describe(fi WireFieldInfo) {
	b := c.open(http.StatusOK, frameDescribe)
	b = appendFieldInfo(b, fi)
	c.emit(b)
}

// list streams a kind-9 frame.
func (c binCodec) list(infos []WireFieldInfo) {
	b := c.open(http.StatusOK, frameList)
	b = appendU32(b, len(infos))
	c.emit(b)
	for _, fi := range infos {
		b = appendFieldInfo(c.buf[:0], fi)
		c.emit(b)
	}
}

// ---------------------------------------------------------------------------
// Decoding (clients: fieldload, tests). The shapes both formats share — I/O
// block, result, batch stats, listing entry — are one struct each: DecodeFrame
// fills it from a frame and its JSON tags are the envelope's keys, so the
// equivalence tests compare the two decodes directly.

// WireIO is the ioStats block — decoded from a frame, and, through its tags,
// the "io" object of the JSON envelopes.
type WireIO struct {
	Reads        int   `json:"reads"`
	SeqReads     int   `json:"seq_reads"`
	RandReads    int   `json:"rand_reads"`
	CacheHits    int   `json:"cache_hits"`
	SimElapsedNs int64 `json:"sim_elapsed_ns"`
}

// WireResult is the result block (one value-query result) in both formats.
type WireResult struct {
	Lo              float64        `json:"lo"`
	Hi              float64        `json:"hi"`
	CandidateGroups int            `json:"candidate_groups"`
	CellsFetched    int            `json:"cells_fetched"`
	CellsMatched    int            `json:"cells_matched"`
	Regions         int            `json:"regions"`
	Isolines        int            `json:"isolines"`
	Area            float64        `json:"area"`
	IO              WireIO         `json:"io"`
	Geometry        [][][2]float64 `json:"geometry,omitempty"`
}

// WireResultFrame is a decoded kind-1 frame.
type WireResultFrame struct {
	Field  string
	Result WireResult
}

// WirePointFrame is a decoded kind-2 frame.
type WirePointFrame struct {
	Field       string
	X, Y, Value float64
}

// WireContourFrame is a decoded kind-3 frame.
type WireContourFrame struct {
	Field     string
	Level     float64
	Polylines int
	IO        WireIO
	Geometry  [][][2]float64
}

// WireBatchStats is the shared-scan summary of a batch response in both
// formats.
type WireBatchStats struct {
	Size            int   `json:"size"`
	PhysicalReads   int   `json:"physical_reads"`
	PhysicalSimNs   int64 `json:"physical_sim_ns"`
	AttributedReads int   `json:"attributed_reads"`
	PagesSaved      int   `json:"pages_saved"`
}

// WireBatchFrame is a decoded kind-4 frame. Results is positional; failed
// members are nil, mirroring the JSON nulls.
type WireBatchFrame struct {
	Field   string
	Results []*WireResult
	Batch   *WireBatchStats
	Error   string
}

// WireErrorFrame is a decoded kind-5 frame.
type WireErrorFrame struct {
	Status  int
	Message string
}

// WireAndFrame is a decoded kind-6 frame.
type WireAndFrame struct {
	Regions  int
	Area     float64
	PerField []WireResult
	Geometry [][][2]float64
}

// WireAggregateFrame is a decoded kind-10 frame. MaxErr is +Inf where the
// JSON envelope says null (degraded requests accept any certified bound).
type WireAggregateFrame struct {
	Field                      string
	Lo, Hi, MaxErr             float64
	Count, CountBound          float64
	Area, AreaBound            float64
	Fraction, FractionBound    float64
	TotalCells, TotalArea      float64
	Approx, Fallback, Degraded bool
	IO                         WireIO
}

// WireUpdateFrame is a decoded kind-7 frame.
type WireUpdateFrame struct {
	Field          string
	Epoch          uint64
	SamplesApplied int
	CellsTouched   int
	PagesWritten   int
	Regrouped      bool
}

// WireFieldInfo is one entry of the field listing in both formats (the
// fieldInfo block of kinds 8 and 9).
type WireFieldInfo struct {
	Name         string  `json:"name"`
	Method       string  `json:"method"`
	Cells        int     `json:"cells"`
	CellPages    int     `json:"cell_pages"`
	IndexPages   int     `json:"index_pages"`
	SidecarPages int     `json:"sidecar_pages"`
	Groups       int     `json:"groups"`
	TreeHeight   int     `json:"tree_height"`
	ValueLo      float64 `json:"value_lo"`
	ValueHi      float64 `json:"value_hi"`
	Writable     bool    `json:"writable"`
}

// WireListFrame is a decoded kind-9 frame.
type WireListFrame struct {
	Fields []WireFieldInfo
}

// frameReader is a bounds-checked cursor over one frame's bytes.
type frameReader struct {
	b   []byte
	off int
	err error
}

func (r *frameReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.off+n > len(r.b) {
		r.err = fmt.Errorf("wire: truncated frame at offset %d (+%d of %d)", r.off, n, len(r.b))
		return nil
	}
	s := r.b[r.off : r.off+n]
	r.off += n
	return s
}

func (r *frameReader) u8() byte {
	s := r.take(1)
	if s == nil {
		return 0
	}
	return s[0]
}

func (r *frameReader) u16() uint16 {
	s := r.take(2)
	if s == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(s)
}

func (r *frameReader) u32() int {
	s := r.take(4)
	if s == nil {
		return 0
	}
	return int(binary.LittleEndian.Uint32(s))
}

func (r *frameReader) u64() uint64 {
	s := r.take(8)
	if s == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(s)
}

func (r *frameReader) i64() int64   { return int64(r.u64()) }
func (r *frameReader) f64() float64 { return math.Float64frombits(r.u64()) }

func (r *frameReader) str() string {
	n := int(r.u16())
	s := r.take(n)
	if s == nil {
		return ""
	}
	return string(s)
}

func (r *frameReader) ioStats() WireIO {
	return WireIO{
		Reads:        r.u32(),
		SeqReads:     r.u32(),
		RandReads:    r.u32(),
		CacheHits:    r.u32(),
		SimElapsedNs: r.i64(),
	}
}

func (r *frameReader) resultCore() WireResult {
	return WireResult{
		Lo:              r.f64(),
		Hi:              r.f64(),
		CandidateGroups: r.u32(),
		CellsFetched:    r.u32(),
		CellsMatched:    r.u32(),
		Regions:         r.u32(),
		Isolines:        r.u32(),
		Area:            r.f64(),
		IO:              r.ioStats(),
	}
}

// column decodes one length-prefixed packed column of n values. n is the
// frame's claim: a block too short to hold it is refused before the claim is
// allocated.
func (r *frameReader) column(n int) []float64 {
	blen := r.u32()
	s := r.take(blen)
	if r.err != nil {
		return nil
	}
	if n == 0 {
		if blen != 0 {
			r.err = fmt.Errorf("wire: %d column bytes for empty column", blen)
		}
		return nil
	}
	if blen < storage.MinFloatColumnSize(n) {
		r.err = fmt.Errorf("wire: %d column bytes cannot hold %d values", blen, n)
		return nil
	}
	out := make([]float64, n)
	if err := storage.DecodeFloatColumn(s, n, out); err != nil {
		r.err = fmt.Errorf("wire: column decode: %v", err)
		return nil
	}
	return out
}

// chunkedColumn decodes a sequence of ⌈n/wireGeomChunk⌉ packed columns back
// into one n-value slice. Counts are attacker-controlled in principle, and a
// value costs at least its 2-bit tag: a count the rest of the frame cannot
// hold is refused rather than its claim allocated.
func (r *frameReader) chunkedColumn(n int) []float64 {
	if r.err != nil || n == 0 {
		return nil
	}
	if n < 0 || n > 4*(len(r.b)-r.off) {
		r.err = fmt.Errorf("wire: %d bytes cannot hold %d values", len(r.b)-r.off, n)
		return nil
	}
	out := make([]float64, 0, n)
	for off := 0; off < n; off += wireGeomChunk {
		m := n - off
		if m > wireGeomChunk {
			m = wireGeomChunk
		}
		col := r.column(m)
		if r.err != nil {
			return nil
		}
		out = append(out, col...)
	}
	return out
}

// geometry decodes an optional geometry block.
func (r *frameReader) geometry() [][][2]float64 {
	if r.u8() == 0 || r.err != nil {
		return nil
	}
	nrings := r.u32()
	npoints := r.u32()
	if r.err != nil {
		return nil
	}
	lens := r.chunkedColumn(nrings)
	xs := r.chunkedColumn(npoints)
	ys := r.chunkedColumn(npoints)
	if r.err != nil {
		return nil
	}
	// nrings lengths and npoints coordinates were decoded: the frame held
	// them. The rings share one point array, each cut from it with its
	// capacity capped, so that appending to one cannot overwrite the next.
	rings := make([][][2]float64, 0, nrings)
	pts := make([][2]float64, npoints)
	off := 0
	for i := 0; i < nrings; i++ {
		npts := int(uint32(math.Float64bits(lens[i])))
		if npts < 0 || off+npts > npoints {
			r.err = fmt.Errorf("wire: geometry ring %d claims %d points beyond the %d-point block", i, npts, npoints)
			return nil
		}
		ring := pts[off : off+npts : off+npts]
		for j := range ring {
			ring[j] = [2]float64{xs[off+j], ys[off+j]}
		}
		off += npts
		rings = append(rings, ring)
	}
	if off != npoints {
		r.err = fmt.Errorf("wire: geometry block carries %d points but rings claim %d", npoints, off)
		return nil
	}
	return rings
}

func (r *frameReader) fieldInfo() WireFieldInfo {
	return WireFieldInfo{
		Name:         r.str(),
		Method:       r.str(),
		Cells:        r.u32(),
		CellPages:    r.u32(),
		IndexPages:   r.u32(),
		SidecarPages: r.u32(),
		Groups:       r.u32(),
		TreeHeight:   r.u32(),
		ValueLo:      r.f64(),
		ValueHi:      r.f64(),
		Writable:     r.u8() != 0,
	}
}

// DecodeFrame parses one binary response frame. It returns one of
// *WireResultFrame, *WirePointFrame, *WireContourFrame, *WireBatchFrame,
// *WireErrorFrame, *WireAndFrame, *WireUpdateFrame, *WireFieldInfo
// (describe), *WireListFrame, or *WireAggregateFrame, by frame kind.
func DecodeFrame(data []byte) (any, error) {
	r := &frameReader{b: data}
	if magic := r.take(4); r.err != nil || string(magic) != wireMagic {
		return nil, fmt.Errorf("wire: bad magic")
	}
	if v := r.u8(); v != wireVersion {
		return nil, fmt.Errorf("wire: unsupported version %d", v)
	}
	kind := r.u8()
	var out any
	switch kind {
	case frameResult:
		f := &WireResultFrame{Field: r.str()}
		f.Result = r.resultCore()
		f.Result.Geometry = r.geometry()
		out = f
	case framePoint:
		out = &WirePointFrame{Field: r.str(), X: r.f64(), Y: r.f64(), Value: r.f64()}
	case frameContour:
		f := &WireContourFrame{Field: r.str(), Level: r.f64()}
		f.Polylines = r.u32()
		f.IO = r.ioStats()
		f.Geometry = r.geometry()
		out = f
	case frameBatch:
		out = decodeBatchFrame(r)
	case frameError:
		out = &WireErrorFrame{Status: int(r.u16()), Message: r.str()}
	case frameAnd:
		f := &WireAndFrame{Regions: r.u32(), Area: r.f64()}
		nper := r.u32()
		for i := 0; i < nper && r.err == nil; i++ {
			f.PerField = append(f.PerField, r.resultCore())
		}
		f.Geometry = r.geometry()
		out = f
	case frameUpdate:
		out = &WireUpdateFrame{
			Field:          r.str(),
			Epoch:          r.u64(),
			SamplesApplied: r.u32(),
			CellsTouched:   r.u32(),
			PagesWritten:   r.u32(),
			Regrouped:      r.u8() != 0,
		}
	case frameAggregate:
		out = &WireAggregateFrame{
			Field:         r.str(),
			Lo:            r.f64(),
			Hi:            r.f64(),
			MaxErr:        r.f64(),
			Count:         r.f64(),
			CountBound:    r.f64(),
			Area:          r.f64(),
			AreaBound:     r.f64(),
			Fraction:      r.f64(),
			FractionBound: r.f64(),
			TotalCells:    r.f64(),
			TotalArea:     r.f64(),
			Approx:        r.u8() != 0,
			Fallback:      r.u8() != 0,
			Degraded:      r.u8() != 0,
			IO:            r.ioStats(),
		}
	case frameDescribe:
		fi := r.fieldInfo()
		out = &fi
	case frameList:
		f := &WireListFrame{}
		n := r.u32()
		for i := 0; i < n && r.err == nil; i++ {
			f.Fields = append(f.Fields, r.fieldInfo())
		}
		out = f
	default:
		return nil, fmt.Errorf("wire: unknown frame kind %d", kind)
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(r.b) {
		return nil, fmt.Errorf("wire: %d trailing bytes after frame", len(r.b)-r.off)
	}
	return out, nil
}

func decodeBatchFrame(r *frameReader) *WireBatchFrame {
	f := &WireBatchFrame{Field: r.str()}
	count := r.u32()
	if r.err != nil || count < 0 {
		return f
	}
	bitmap := r.take((count + 7) / 8)
	if r.err != nil {
		return f
	}
	present := make([]bool, count)
	npresent := 0
	for i := range present {
		if bitmap[i/8]&(1<<(i%8)) != 0 {
			present[i] = true
			npresent++
		}
	}
	if r.u8() != 0 {
		f.Batch = &WireBatchStats{
			Size:            r.u32(),
			PhysicalReads:   r.u32(),
			PhysicalSimNs:   r.i64(),
			AttributedReads: r.u32(),
			PagesSaved:      r.u32(),
		}
	}
	f.Error = r.str()
	f.Results = make([]*WireResult, count)
	if npresent > 0 {
		cols := make([][]float64, batchColumns)
		for ci := range cols {
			cols[ci] = r.column(npresent)
		}
		if r.err != nil {
			return f
		}
		j := 0
		for i := range present {
			if !present[i] {
				continue
			}
			f.Results[i] = &WireResult{
				Lo:              cols[0][j],
				Hi:              cols[1][j],
				CandidateGroups: int(math.Float64bits(cols[2][j])),
				CellsFetched:    int(math.Float64bits(cols[3][j])),
				CellsMatched:    int(math.Float64bits(cols[4][j])),
				Regions:         int(math.Float64bits(cols[5][j])),
				Isolines:        int(math.Float64bits(cols[6][j])),
				Area:            cols[7][j],
				IO: WireIO{
					Reads:        int(math.Float64bits(cols[8][j])),
					SeqReads:     int(math.Float64bits(cols[9][j])),
					RandReads:    int(math.Float64bits(cols[10][j])),
					CacheHits:    int(math.Float64bits(cols[11][j])),
					SimElapsedNs: int64(math.Float64bits(cols[12][j])),
				},
			}
			j++
		}
	}
	for i := range present {
		if !present[i] {
			continue
		}
		f.Results[i].Geometry = r.geometry()
	}
	return f
}
