// Package formats implements the Execution layer's "data format conversion
// tools" (Figure 2): serializers and parsers that turn generated data sets
// into the representation a specific workload consumes — CSV/TSV for
// relational loads, JSON lines for document stores, plain text for
// MapReduce text workloads, and edge lists for graph engines.
//
// All writers are deterministic: the same table serializes to the same
// bytes, which the round-trip tests rely on.
package formats

import (
	"bufio"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"

	"github.com/bdbench/bdbench/internal/data"
	"github.com/bdbench/bdbench/internal/datagen/graphgen"
)

// Format names a table serialization format.
type Format string

// The supported table formats.
const (
	CSV   Format = "csv"
	TSV   Format = "tsv"
	JSONL Format = "jsonl"
)

// WriteTable serializes a table in the given format.
func WriteTable(w io.Writer, t *data.Table, f Format) error {
	switch f {
	case CSV:
		return writeSeparated(w, t, ',')
	case TSV:
		return writeSeparated(w, t, '\t')
	case JSONL:
		return writeJSONL(w, t)
	default:
		return fmt.Errorf("formats: unknown table format %q", f)
	}
}

// ReadTable parses a table in the given format; the schema supplies column
// names and kinds for typed decoding.
func ReadTable(r io.Reader, schema data.Schema, f Format) (*data.Table, error) {
	switch f {
	case CSV:
		return readSeparated(r, schema, ',')
	case TSV:
		return readSeparated(r, schema, '\t')
	case JSONL:
		return readJSONL(r, schema)
	default:
		return nil, fmt.Errorf("formats: unknown table format %q", f)
	}
}

const nullToken = `\N` // MySQL-style null marker for separated formats

func writeSeparated(w io.Writer, t *data.Table, sep rune) error {
	cw := csv.NewWriter(w)
	cw.Comma = sep
	header := make([]string, len(t.Schema.Cols))
	for i, c := range t.Schema.Cols {
		header[i] = c.Name
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	rec := make([]string, len(t.Schema.Cols))
	for _, row := range t.Rows {
		for i, v := range row {
			if v.IsNull() {
				rec[i] = nullToken
			} else {
				rec[i] = v.String()
			}
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

func readSeparated(r io.Reader, schema data.Schema, sep rune) (*data.Table, error) {
	cr := csv.NewReader(r)
	cr.Comma = sep
	cr.FieldsPerRecord = len(schema.Cols)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("formats: reading header: %w", err)
	}
	for i, c := range schema.Cols {
		if header[i] != c.Name {
			return nil, fmt.Errorf("formats: header column %d is %q, schema says %q", i, header[i], c.Name)
		}
	}
	t := data.NewTable(schema)
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		row := make(data.Row, len(schema.Cols))
		for i, field := range rec {
			v, err := parseValue(field, schema.Cols[i].Kind)
			if err != nil {
				return nil, fmt.Errorf("formats: column %q: %w", schema.Cols[i].Name, err)
			}
			row[i] = v
		}
		if err := t.Append(row); err != nil {
			return nil, err
		}
	}
	return t, nil
}

func parseValue(field string, kind data.Kind) (data.Value, error) {
	if field == nullToken {
		return data.Null(), nil
	}
	switch kind {
	case data.KindInt:
		n, err := strconv.ParseInt(field, 10, 64)
		if err != nil {
			return data.Null(), err
		}
		return data.Int(n), nil
	case data.KindFloat:
		f, err := strconv.ParseFloat(field, 64)
		if err != nil {
			return data.Null(), err
		}
		return data.Float(f), nil
	case data.KindString:
		return data.String_(field), nil
	case data.KindBool:
		b, err := strconv.ParseBool(field)
		if err != nil {
			return data.Null(), err
		}
		return data.Bool(b), nil
	default:
		return data.Null(), fmt.Errorf("unsupported kind %v", kind)
	}
}

func writeJSONL(w io.Writer, t *data.Table) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	obj := make(map[string]any, len(t.Schema.Cols))
	for _, row := range t.Rows {
		clear(obj)
		for i, v := range row {
			name := t.Schema.Cols[i].Name
			switch v.Kind() {
			case data.KindNull:
				obj[name] = nil
			case data.KindInt:
				obj[name] = v.Int()
			case data.KindFloat:
				obj[name] = v.Float()
			case data.KindString:
				obj[name] = v.Str()
			case data.KindBool:
				obj[name] = v.Bool()
			}
		}
		if err := enc.Encode(obj); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func readJSONL(r io.Reader, schema data.Schema) (*data.Table, error) {
	t := data.NewTable(schema)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		var obj map[string]any
		if err := json.Unmarshal([]byte(text), &obj); err != nil {
			return nil, fmt.Errorf("formats: jsonl line %d: %w", line, err)
		}
		row := make(data.Row, len(schema.Cols))
		for i, c := range schema.Cols {
			raw, ok := obj[c.Name]
			if !ok || raw == nil {
				row[i] = data.Null()
				continue
			}
			switch c.Kind {
			case data.KindInt:
				f, ok := raw.(float64)
				if !ok {
					return nil, fmt.Errorf("formats: jsonl line %d: column %q not numeric", line, c.Name)
				}
				row[i] = data.Int(int64(f))
			case data.KindFloat:
				f, ok := raw.(float64)
				if !ok {
					return nil, fmt.Errorf("formats: jsonl line %d: column %q not numeric", line, c.Name)
				}
				row[i] = data.Float(f)
			case data.KindString:
				s, ok := raw.(string)
				if !ok {
					return nil, fmt.Errorf("formats: jsonl line %d: column %q not a string", line, c.Name)
				}
				row[i] = data.String_(s)
			case data.KindBool:
				b, ok := raw.(bool)
				if !ok {
					return nil, fmt.Errorf("formats: jsonl line %d: column %q not a bool", line, c.Name)
				}
				row[i] = data.Bool(b)
			}
		}
		if err := t.Append(row); err != nil {
			return nil, err
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return t, nil
}

// WriteEdgeList serializes a graph as "src<TAB>dst" lines, the format graph
// engines and MapReduce graph workloads consume.
func WriteEdgeList(w io.Writer, g *graphgen.Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# vertices %d\n", g.N); err != nil {
		return err
	}
	for _, e := range g.Edges {
		if _, err := fmt.Fprintf(bw, "%d\t%d\n", e.Src, e.Dst); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadEdgeList parses the WriteEdgeList format.
func ReadEdgeList(r io.Reader) (*graphgen.Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	g := &graphgen.Graph{}
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		if strings.HasPrefix(text, "#") {
			if _, err := fmt.Sscanf(text, "# vertices %d", &g.N); err != nil {
				return nil, fmt.Errorf("formats: edge list line %d: bad header", line)
			}
			continue
		}
		var e graphgen.Edge
		if _, err := fmt.Sscanf(text, "%d\t%d", &e.Src, &e.Dst); err != nil {
			return nil, fmt.Errorf("formats: edge list line %d: %w", line, err)
		}
		g.Edges = append(g.Edges, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if g.N == 0 {
		// Infer vertex count when the header is absent.
		for _, e := range g.Edges {
			if e.Src >= g.N {
				g.N = e.Src + 1
			}
			if e.Dst >= g.N {
				g.N = e.Dst + 1
			}
		}
	}
	return g, nil
}
