// Package weblog generates semi-structured web access logs. In the paper's
// survey, BigBench generates "web logs and reviews ... on the basis of the
// table data. Hence the veracity of web logs and reviews rely on the table
// data" — this package mirrors that design: click sessions are derived from
// a customer/product table, so log veracity inherits table veracity.
package weblog

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"github.com/bdbench/bdbench/internal/data"
	"github.com/bdbench/bdbench/internal/stats"
)

// Record is one access-log entry in Apache combined-log spirit.
type Record struct {
	IP      string
	User    string
	Time    time.Time
	Method  string
	Path    string
	Status  int
	Bytes   int64
	Referer string
	Agent   string
}

// timeLayout is the combined log format's timestamp.
const timeLayout = "02/Jan/2006:15:04:05 -0700"

// AppendFormat appends the record's Apache combined log line, without a
// newline, to dst and returns the extended slice. It is the one definition
// of the line the "weblog" corpus writes.
func (r Record) AppendFormat(dst []byte) []byte {
	dst = append(append(append(append(dst, r.IP...), " - "...), r.User...), " ["...)
	dst = append(r.Time.AppendFormat(dst, timeLayout), `] "`...)
	dst = append(append(append(append(dst, r.Method...), ' '), r.Path...), ` HTTP/1.1" `...)
	dst = append(strconv.AppendInt(dst, int64(r.Status), 10), ' ')
	dst = append(strconv.AppendInt(dst, r.Bytes, 10), ` "`...)
	return append(append(append(append(dst, r.Referer...), `" "`...), r.Agent...), '"')
}

// Parse parses a combined log line produced by AppendFormat. It returns an
// error for malformed lines.
func Parse(line string) (Record, error) {
	var r Record
	// IP - user [time] "METHOD path HTTP/1.1" status bytes "ref" "agent"
	parts := strings.SplitN(line, " ", 4)
	if len(parts) < 4 {
		return r, fmt.Errorf("weblog: short line")
	}
	r.IP = parts[0]
	r.User = parts[2]
	rest := parts[3]
	tEnd := strings.Index(rest, "] ")
	if !strings.HasPrefix(rest, "[") || tEnd < 0 {
		return r, fmt.Errorf("weblog: missing timestamp")
	}
	ts, err := time.Parse(timeLayout, rest[1:tEnd])
	if err != nil {
		return r, fmt.Errorf("weblog: bad timestamp: %w", err)
	}
	r.Time = ts
	rest = rest[tEnd+2:]
	if !strings.HasPrefix(rest, `"`) {
		return r, fmt.Errorf("weblog: missing request")
	}
	reqEnd := strings.Index(rest[1:], `"`)
	if reqEnd < 0 {
		return r, fmt.Errorf("weblog: unterminated request")
	}
	req := rest[1 : 1+reqEnd]
	reqParts := strings.Split(req, " ")
	if len(reqParts) != 3 {
		return r, fmt.Errorf("weblog: bad request %q", req)
	}
	r.Method, r.Path = reqParts[0], reqParts[1]
	rest = rest[reqEnd+3:]
	if _, err := fmt.Sscanf(rest, "%d %d", &r.Status, &r.Bytes); err != nil {
		return r, fmt.Errorf("weblog: bad status/bytes: %w", err)
	}
	quoteFields := strings.SplitN(rest, `"`, 5)
	if len(quoteFields) >= 4 {
		r.Referer = quoteFields[1]
		r.Agent = quoteFields[3]
	}
	return r, nil
}

// A click session averages sessionLen pages, and errorRate of the responses
// are 4xx/5xx.
const (
	sessionLen = 8
	errorRate  = 0.02
)

// start is the virtual time of a log's first request.
var start = time.Date(2014, 3, 1, 0, 0, 0, 0, time.UTC)

var agents = []string{
	"Mozilla/5.0 (X11; Linux x86_64)",
	"Mozilla/5.0 (Macintosh; Intel Mac OS X 10_15)",
	"Mozilla/5.0 (Windows NT 10.0; Win64; x64)",
	"curl/8.0.1",
	"bdbench-crawler/1.0",
}

// FromTable derives n click-stream log records from an orders table (expects
// customer_id and product_id columns, as in tablegen.ReferenceTable): each
// session belongs to a customer drawn from the table's customer column and
// browses product pages drawn from its product column, so skews carry over.
func FromTable(g *stats.RNG, orders *data.Table, n int) ([]Record, error) {
	src, err := newSource(orders)
	if err != nil {
		return nil, err
	}
	out := make([]Record, n)
	fill(g, src, start, out)
	return out, nil
}

// source is an orders table readied for click sessions: per row, its
// customer's IP and user name and its product's page, rendered once so that
// drawing a record allocates nothing.
type source []struct{ ip, user, path string }

// newSource validates the orders table and renders its rows' strings, all
// cut from one arena: a pass to size it, a pass to fill it.
func newSource(orders *data.Table) (source, error) {
	custIdx := orders.Schema.ColIndex("customer_id")
	prodIdx := orders.Schema.ColIndex("product_id")
	if custIdx < 0 || prodIdx < 0 {
		return nil, fmt.Errorf("weblog: table %q lacks customer_id/product_id", orders.Schema.Name)
	}
	if orders.NumRows() == 0 {
		return nil, fmt.Errorf("weblog: empty orders table")
	}
	var buf [80]byte
	size := 0
	for _, row := range orders.Rows {
		rendered, _, _ := appendSourceRow(buf[:0], row[custIdx].Int(), row[prodIdx].Int())
		size += len(rendered)
	}
	var b strings.Builder
	b.Grow(size)
	src := make(source, orders.NumRows())
	for i, row := range orders.Rows {
		off := b.Len()
		rendered, ip, user := appendSourceRow(buf[:0], row[custIdx].Int(), row[prodIdx].Int())
		b.Write(rendered)
		s := b.String()[off:]
		src[i].ip, src[i].user, src[i].path = s[:ip], s[ip:user], s[user:]
	}
	return src, nil
}

// appendSourceRow appends an orders row's IP ("10.a.b.c" from its customer),
// user name ("u" and the customer) and product page ("/product/" and the
// product) to dst, and returns it with where the user name and the page begin.
func appendSourceRow(dst []byte, cust, prod int64) (out []byte, user, path int) {
	dst = strconv.AppendInt(append(dst, "10."...), (cust>>16)&255, 10)
	dst = strconv.AppendInt(append(dst, '.'), (cust>>8)&255, 10)
	dst = strconv.AppendInt(append(dst, '.'), cust&255, 10)
	user = len(dst)
	dst = strconv.AppendInt(append(dst, 'u'), cust, 10)
	path = len(dst)
	return strconv.AppendInt(append(dst, "/product/"...), prod, 10), user, path
}

// sessions draws n click-session records starting at the virtual time at
// and hands each to emit. It is the one sequence of draws behind FromTable,
// FromTableParallel and the "weblog" corpus.
func sessions(g *stats.RNG, src source, n int, at time.Time, emit func(Record)) {
	for n > 0 {
		// Pick a random order row; its customer anchors the session.
		row := src[g.IntN(len(src))]
		pages := int(stats.Poisson{Lambda: sessionLen}.Sample(g)) + 1
		for p := 0; p < pages && n > 0; p, n = p+1, n-1 {
			path := src[g.IntN(len(src))].path
			status := 200
			if g.Bool(errorRate) {
				if g.Bool(0.5) {
					status = 404
				} else {
					status = 500
				}
			}
			if p == pages-1 && g.Bool(0.3) {
				path = "/checkout"
			}
			referer := "-"
			if p > 0 {
				referer = "/search"
			}
			emit(Record{
				IP:   row.ip,
				User: row.user,
				// The combined log format carries second granularity, so
				// records are truncated to it for clean round-trips.
				Time:    at.Truncate(time.Second),
				Method:  "GET",
				Path:    path,
				Status:  status,
				Bytes:   int64(500 + g.IntN(20000)),
				Referer: referer,
				Agent:   agents[g.IntN(len(agents))],
			})
			at = at.Add(time.Duration(g.IntN(5000)) * time.Millisecond)
		}
	}
}

// fill draws len(dst) records by sessions into dst.
func fill(g *stats.RNG, src source, at time.Time, dst []Record) {
	i := 0
	sessions(g, src, len(dst), at, func(r Record) { dst[i], i = r, i+1 })
}
