package dataset

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/topology"
)

// Columnar population persistence (schema pop.v1) — the dataset side of the
// structure-of-arrays pass (DESIGN.md §12) layered on the hardened framing of
// DESIGN.md §11. A population is thirteen thousand rows with a dozen fields;
// row-oriented JSON holds every field of every record resident at once. The
// pop.v1 layout instead writes one checksum frame per column: a framed header
// naming the schema, the row counts, and the column order, then each column as
// a single frame containing that column's values for all rows. Writers
// serialize one column at a time (the transient buffer is released between
// columns) and readers stream frame-by-frame, so a consumer that wants only
// the version column never materializes link speeds or IPs.
//
// Damage semantics match crawl.v1: a missing or corrupt header, or an unknown
// schema, is a hard error; a corrupt or half-written frame truncates the
// stream at that point with every checksummed column before it returned
// intact. The derived topology is not stored — it is rebuilt from the AS rows
// exactly as Generate builds it, so a decoded population is byte-identical to
// the generated one.

// PopSchemaV1 names the columnar population schema.
const PopSchemaV1 = "pop.v1"

// ErrPopSchema marks a population file whose header names an unknown schema.
var ErrPopSchema = errors.New("dataset: unknown population schema")

// ErrPopIncomplete marks a truncated population file whose surviving column
// prefix is not enough to assemble a full Population. The per-column prefix
// is still recoverable via PopColumnReader.
var ErrPopIncomplete = errors.New("dataset: population file incomplete")

// popHeader is the first frame of a pop.v1 file.
type popHeader struct {
	Schema  string   `json:"schema"`
	ASes    int      `json:"ases"`
	Nodes   int      `json:"nodes"`
	Columns []string `json:"columns"`
}

// popColumn is one column frame: the column name and its values for every
// row, in row order.
type popColumn struct {
	Name   string          `json:"c"`
	Values json.RawMessage `json:"v"`
}

// popColumnOrder is the canonical column sequence: AS-table columns first
// (assembly rebuilds the topology from them), then node-table columns.
var popColumnOrder = []string{
	"as_asn", "as_name", "as_org", "as_nodes", "as_prefixes",
	"as_concentration", "as_country",
	"node_id", "node_family", "node_asn", "node_org", "node_ip",
	"node_prefix_base", "node_prefix_len", "node_link_speed",
	"node_latency", "node_uptime", "node_up", "node_version",
	"node_class", "node_mean_catchup",
}

// maxPopPrefixes bounds the total prefix count accepted at assembly time, so
// a damaged or hostile file cannot demand an enormous topology allocation.
const maxPopPrefixes = 1 << 20

// WriteFramedPopulation streams a population in the columnar pop.v1 format.
// Only the canonical tables (AS rows and node records) are written; the
// topology is derived and is reconstructed on read.
func WriteFramedPopulation(w io.Writer, p *Population) error {
	if p == nil {
		return errors.New("dataset: nil population")
	}
	bw := bufio.NewWriter(w)
	hdr, err := json.Marshal(popHeader{
		Schema:  PopSchemaV1,
		ASes:    len(p.ASRows),
		Nodes:   len(p.Nodes),
		Columns: popColumnOrder,
	})
	if err != nil {
		return fmt.Errorf("dataset: encode population header: %w", err)
	}
	line, err := checkpoint.EncodeFrame(hdr)
	if err != nil {
		return fmt.Errorf("dataset: frame population header: %w", err)
	}
	if _, err := bw.Write(line); err != nil {
		return fmt.Errorf("dataset: write population header: %w", err)
	}
	for _, name := range popColumnOrder {
		// Each column's value slice is built, framed, and released before the
		// next column is touched — peak residency is one column, not the
		// whole table.
		values, err := json.Marshal(popColumnValues(p, name))
		if err != nil {
			return fmt.Errorf("dataset: encode column %s: %w", name, err)
		}
		payload, err := json.Marshal(popColumn{Name: name, Values: values})
		if err != nil {
			return fmt.Errorf("dataset: encode column %s: %w", name, err)
		}
		line, err := checkpoint.EncodeFrame(payload)
		if err != nil {
			return fmt.Errorf("dataset: frame column %s: %w", name, err)
		}
		if _, err := bw.Write(line); err != nil {
			return fmt.Errorf("dataset: write column %s: %w", name, err)
		}
	}
	return bw.Flush()
}

// popColumnValues extracts one named column from the population as a slice
// ready for JSON encoding.
func popColumnValues(p *Population, name string) any {
	switch name {
	case "as_asn":
		out := make([]topology.ASN, len(p.ASRows))
		for i, r := range p.ASRows {
			out[i] = r.ASN
		}
		return out
	case "as_name":
		out := make([]string, len(p.ASRows))
		for i, r := range p.ASRows {
			out[i] = r.Name
		}
		return out
	case "as_org":
		out := make([]string, len(p.ASRows))
		for i, r := range p.ASRows {
			out[i] = r.Org
		}
		return out
	case "as_nodes":
		out := make([]int, len(p.ASRows))
		for i, r := range p.ASRows {
			out[i] = r.Nodes
		}
		return out
	case "as_prefixes":
		out := make([]int, len(p.ASRows))
		for i, r := range p.ASRows {
			out[i] = r.Prefixes
		}
		return out
	case "as_concentration":
		out := make([]float64, len(p.ASRows))
		for i, r := range p.ASRows {
			out[i] = r.Concentration
		}
		return out
	case "as_country":
		out := make([]string, len(p.ASRows))
		for i, r := range p.ASRows {
			out[i] = r.Country
		}
		return out
	case "node_id":
		out := make([]int, len(p.Nodes))
		for i := range p.Nodes {
			out[i] = p.Nodes[i].ID
		}
		return out
	case "node_family":
		out := make([]int, len(p.Nodes))
		for i := range p.Nodes {
			out[i] = int(p.Nodes[i].Family)
		}
		return out
	case "node_asn":
		out := make([]topology.ASN, len(p.Nodes))
		for i := range p.Nodes {
			out[i] = p.Nodes[i].ASN
		}
		return out
	case "node_org":
		out := make([]string, len(p.Nodes))
		for i := range p.Nodes {
			out[i] = p.Nodes[i].Org
		}
		return out
	case "node_ip":
		out := make([]uint32, len(p.Nodes))
		for i := range p.Nodes {
			out[i] = uint32(p.Nodes[i].IP)
		}
		return out
	case "node_prefix_base":
		out := make([]uint32, len(p.Nodes))
		for i := range p.Nodes {
			out[i] = uint32(p.Nodes[i].Prefix.Base)
		}
		return out
	case "node_prefix_len":
		out := make([]int, len(p.Nodes))
		for i := range p.Nodes {
			out[i] = p.Nodes[i].Prefix.Len
		}
		return out
	case "node_link_speed":
		out := make([]float64, len(p.Nodes))
		for i := range p.Nodes {
			out[i] = p.Nodes[i].LinkSpeedMbs
		}
		return out
	case "node_latency":
		out := make([]float64, len(p.Nodes))
		for i := range p.Nodes {
			out[i] = p.Nodes[i].LatencyIndex
		}
		return out
	case "node_uptime":
		out := make([]float64, len(p.Nodes))
		for i := range p.Nodes {
			out[i] = p.Nodes[i].UptimeIndex
		}
		return out
	case "node_up":
		out := make([]bool, len(p.Nodes))
		for i := range p.Nodes {
			out[i] = p.Nodes[i].Up
		}
		return out
	case "node_version":
		out := make([]string, len(p.Nodes))
		for i := range p.Nodes {
			out[i] = p.Nodes[i].Version
		}
		return out
	case "node_class":
		out := make([]int, len(p.Nodes))
		for i := range p.Nodes {
			out[i] = int(p.Nodes[i].Class)
		}
		return out
	case "node_mean_catchup":
		out := make([]int64, len(p.Nodes))
		for i := range p.Nodes {
			out[i] = int64(p.Nodes[i].MeanCatchup)
		}
		return out
	default:
		// Unreachable: popColumnOrder is the only caller's source of names.
		panic("dataset: unknown population column " + name)
	}
}

// PopColumnReader streams the column frames of a pop.v1 file one at a time,
// so consumers can decode just the columns they need without holding the
// whole table resident.
type PopColumnReader struct {
	br        *bufio.Reader
	hdr       popHeader
	truncated bool
	done      bool
}

// NewPopColumnReader reads and validates the header frame. A missing or
// corrupt header, or an unknown schema, is a hard error.
func NewPopColumnReader(r io.Reader) (*PopColumnReader, error) {
	br := bufio.NewReader(r)
	line, complete := readFrameLine(br)
	if !complete {
		return nil, fmt.Errorf("dataset: missing population header: %w", checkpoint.ErrCorrupt)
	}
	payload, err := checkpoint.DecodeFrame(line)
	if err != nil {
		return nil, fmt.Errorf("dataset: population header: %w", err)
	}
	var hdr popHeader
	if err := json.Unmarshal(payload, &hdr); err != nil {
		return nil, fmt.Errorf("dataset: population header: %w: %v", checkpoint.ErrCorrupt, err)
	}
	if hdr.Schema != PopSchemaV1 {
		return nil, fmt.Errorf("%w %q (want %q)", ErrPopSchema, hdr.Schema, PopSchemaV1)
	}
	if hdr.ASes < 0 || hdr.Nodes < 0 {
		return nil, fmt.Errorf("dataset: population header: negative row count: %w", checkpoint.ErrCorrupt)
	}
	return &PopColumnReader{br: br, hdr: hdr}, nil
}

// ASes returns the AS-row count declared by the header.
func (r *PopColumnReader) ASes() int { return r.hdr.ASes }

// Nodes returns the node-row count declared by the header.
func (r *PopColumnReader) Nodes() int { return r.hdr.Nodes }

// Columns returns the column order declared by the header.
func (r *PopColumnReader) Columns() []string { return r.hdr.Columns }

// Next returns the next intact column frame. ok is false at the end of the
// stream — clean or damaged; Truncated distinguishes the two. After the first
// damaged frame no further columns are returned: in-order delivery is what
// makes the recovered set a prefix.
func (r *PopColumnReader) Next() (name string, values json.RawMessage, ok bool) {
	if r.done {
		return "", nil, false
	}
	line, complete := readFrameLine(r.br)
	if len(line) == 0 && !complete {
		r.done = true
		return "", nil, false
	}
	if !complete {
		r.done, r.truncated = true, true
		return "", nil, false
	}
	payload, err := checkpoint.DecodeFrame(line)
	if err != nil {
		r.done, r.truncated = true, true
		return "", nil, false
	}
	var col popColumn
	if err := json.Unmarshal(payload, &col); err != nil {
		r.done, r.truncated = true, true
		return "", nil, false
	}
	return col.Name, col.Values, true
}

// Truncated reports whether the stream ended at a damaged frame rather than a
// clean end of input. Only meaningful once Next has returned ok == false.
func (r *PopColumnReader) Truncated() bool { return r.truncated }

// ReadFramedPopulation loads a population written by WriteFramedPopulation
// and reassembles it, topology included. Damage handling follows crawl.v1: a
// bad header or schema is a hard error; damage after all columns were read
// reports truncated with the full population intact. Damage that costs a
// needed column returns ErrPopIncomplete (with truncated true) — use
// PopColumnReader to salvage the surviving column prefix.
func ReadFramedPopulation(r io.Reader) (p *Population, truncated bool, err error) {
	cr, err := NewPopColumnReader(r)
	if err != nil {
		return nil, false, err
	}
	cols := make(map[string]json.RawMessage, len(popColumnOrder))
	for {
		name, values, ok := cr.Next()
		if !ok {
			break
		}
		// Last write wins on a duplicated name; canonical files never
		// duplicate, and assembly validates lengths regardless.
		cols[name] = values
	}
	truncated = cr.Truncated()
	p, err = assemblePopulation(cr.hdr, cols)
	if err != nil {
		return nil, truncated, err
	}
	return p, truncated, nil
}

// decodePopColumn unmarshals one column into a typed slice and enforces the
// header's row count; a missing or short column is incompleteness, not a
// parse error.
func decodePopColumn[T any](cols map[string]json.RawMessage, name string, rows int) ([]T, error) {
	raw, ok := cols[name]
	if !ok {
		return nil, fmt.Errorf("%w: missing column %s", ErrPopIncomplete, name)
	}
	var out []T
	if err := json.Unmarshal(raw, &out); err != nil {
		return nil, fmt.Errorf("%w: column %s: %v", ErrPopIncomplete, name, err)
	}
	if len(out) != rows {
		return nil, fmt.Errorf("%w: column %s has %d rows, header claims %d", ErrPopIncomplete, name, len(out), rows)
	}
	return out, nil
}

// assemblePopulation rebuilds a Population from decoded columns: AS rows,
// derived topology (reconstructed exactly as Generate builds it), and node
// records.
func assemblePopulation(hdr popHeader, cols map[string]json.RawMessage) (*Population, error) {
	asASN, err := decodePopColumn[topology.ASN](cols, "as_asn", hdr.ASes)
	if err != nil {
		return nil, err
	}
	asName, err := decodePopColumn[string](cols, "as_name", hdr.ASes)
	if err != nil {
		return nil, err
	}
	asOrg, err := decodePopColumn[string](cols, "as_org", hdr.ASes)
	if err != nil {
		return nil, err
	}
	asNodes, err := decodePopColumn[int](cols, "as_nodes", hdr.ASes)
	if err != nil {
		return nil, err
	}
	asPrefixes, err := decodePopColumn[int](cols, "as_prefixes", hdr.ASes)
	if err != nil {
		return nil, err
	}
	asConc, err := decodePopColumn[float64](cols, "as_concentration", hdr.ASes)
	if err != nil {
		return nil, err
	}
	asCountry, err := decodePopColumn[string](cols, "as_country", hdr.ASes)
	if err != nil {
		return nil, err
	}
	rows := make([]ASRow, hdr.ASes)
	totalPrefixes := 0
	for i := range rows {
		if asPrefixes[i] < 0 || totalPrefixes+asPrefixes[i] > maxPopPrefixes {
			return nil, fmt.Errorf("dataset: AS row %d pushes prefix total past %d: %w", i, maxPopPrefixes, checkpoint.ErrCorrupt)
		}
		totalPrefixes += asPrefixes[i]
		rows[i] = ASRow{
			ASN:           asASN[i],
			Name:          asName[i],
			Org:           asOrg[i],
			Nodes:         asNodes[i],
			Prefixes:      asPrefixes[i],
			Concentration: asConc[i],
			Country:       asCountry[i],
		}
	}

	nodeID, err := decodePopColumn[int](cols, "node_id", hdr.Nodes)
	if err != nil {
		return nil, err
	}
	nodeFamily, err := decodePopColumn[int](cols, "node_family", hdr.Nodes)
	if err != nil {
		return nil, err
	}
	nodeASN, err := decodePopColumn[topology.ASN](cols, "node_asn", hdr.Nodes)
	if err != nil {
		return nil, err
	}
	nodeOrg, err := decodePopColumn[string](cols, "node_org", hdr.Nodes)
	if err != nil {
		return nil, err
	}
	nodeIP, err := decodePopColumn[uint32](cols, "node_ip", hdr.Nodes)
	if err != nil {
		return nil, err
	}
	nodePfxBase, err := decodePopColumn[uint32](cols, "node_prefix_base", hdr.Nodes)
	if err != nil {
		return nil, err
	}
	nodePfxLen, err := decodePopColumn[int](cols, "node_prefix_len", hdr.Nodes)
	if err != nil {
		return nil, err
	}
	nodeSpeed, err := decodePopColumn[float64](cols, "node_link_speed", hdr.Nodes)
	if err != nil {
		return nil, err
	}
	nodeLatency, err := decodePopColumn[float64](cols, "node_latency", hdr.Nodes)
	if err != nil {
		return nil, err
	}
	nodeUptime, err := decodePopColumn[float64](cols, "node_uptime", hdr.Nodes)
	if err != nil {
		return nil, err
	}
	nodeUp, err := decodePopColumn[bool](cols, "node_up", hdr.Nodes)
	if err != nil {
		return nil, err
	}
	nodeVersion, err := decodePopColumn[string](cols, "node_version", hdr.Nodes)
	if err != nil {
		return nil, err
	}
	nodeClass, err := decodePopColumn[int](cols, "node_class", hdr.Nodes)
	if err != nil {
		return nil, err
	}
	nodeCatchup, err := decodePopColumn[int64](cols, "node_mean_catchup", hdr.Nodes)
	if err != nil {
		return nil, err
	}

	topo, err := buildTopology(rows)
	if err != nil {
		return nil, fmt.Errorf("dataset: rebuild topology: %w", err)
	}
	p := &Population{Topo: topo, ASRows: rows, asIndex: make(map[topology.ASN]int, len(rows))}
	for i, r := range rows {
		p.asIndex[r.ASN] = i
	}
	p.Nodes = make([]NodeRecord, hdr.Nodes)
	for i := range p.Nodes {
		p.Nodes[i] = NodeRecord{
			ID:           nodeID[i],
			Family:       topology.AddrFamily(nodeFamily[i]),
			ASN:          nodeASN[i],
			Org:          nodeOrg[i],
			IP:           topology.IP(nodeIP[i]),
			Prefix:       topology.Prefix{Base: topology.IP(nodePfxBase[i]), Len: nodePfxLen[i]},
			LinkSpeedMbs: nodeSpeed[i],
			LatencyIndex: nodeLatency[i],
			UptimeIndex:  nodeUptime[i],
			Up:           nodeUp[i],
			Version:      nodeVersion[i],
			Class:        Class(nodeClass[i]),
			MeanCatchup:  time.Duration(nodeCatchup[i]),
		}
	}
	return p, nil
}

// readFrameLine reads one line without its newline; complete is false when
// the input ended before a newline (a half-written final line never counts).
func readFrameLine(br *bufio.Reader) (line []byte, complete bool) {
	line, err := br.ReadBytes('\n')
	if err != nil {
		return line, false
	}
	return line[:len(line)-1], true
}
