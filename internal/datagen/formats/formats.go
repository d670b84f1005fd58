// Package formats implements the Execution layer's "data format conversion
// tools" (Figure 2): it serializes a generated table as CSV, the
// representation Figure 3's format-conversion step writes.
//
// The writer is deterministic: the same table serializes to the same bytes,
// which the round-trip tests rely on.
package formats

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"github.com/bdbench/bdbench/internal/data"
)

const nullToken = `\N` // MySQL-style null marker

// WriteTable serializes a table as CSV: a header of column names, then one
// record per row, with nulls written as \N.
func WriteTable(w io.Writer, t *data.Table) error {
	cw := csv.NewWriter(w)
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

// ReadTable parses WriteTable's CSV; the schema supplies column names and
// kinds for typed decoding.
func ReadTable(r io.Reader, schema data.Schema) (*data.Table, error) {
	cr := csv.NewReader(r)
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
