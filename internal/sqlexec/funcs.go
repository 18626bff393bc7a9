package sqlexec

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"strings"

	"genedit/internal/sqldb"
)

// applyScalarFunc is the value-level semantics of the scalar function
// library, shared by the compiled programs and the oracle (interp_test.go).
func applyScalarFunc(name string, args []sqldb.Value) (sqldb.Value, error) {
	need := func(n int) error {
		if len(args) != n {
			return execErrf("%s expects %d argument(s), got %d", name, n, len(args))
		}
		return nil
	}
	switch name {
	case "NULLIF":
		if err := need(2); err != nil {
			return sqldb.Null(), err
		}
		if args[0].IsNull() {
			return sqldb.Null(), nil
		}
		if !args[1].IsNull() && args[0].Equal(args[1]) {
			return sqldb.Null(), nil
		}
		return args[0], nil
	case "COALESCE", "IFNULL":
		for _, a := range args {
			if !a.IsNull() {
				return a, nil
			}
		}
		return sqldb.Null(), nil
	case "ABS":
		if err := need(1); err != nil {
			return sqldb.Null(), err
		}
		if args[0].IsNull() {
			return sqldb.Null(), nil
		}
		if args[0].K == sqldb.KindInt {
			if args[0].I < 0 {
				return sqldb.Int(-args[0].I), nil
			}
			return args[0], nil
		}
		f, ok := args[0].AsFloat()
		if !ok {
			return sqldb.Null(), execErrf("ABS of non-numeric %q", args[0].String())
		}
		return sqldb.Float(math.Abs(f)), nil
	case "ROUND":
		if len(args) < 1 || len(args) > 2 {
			return sqldb.Null(), execErrf("ROUND expects 1 or 2 arguments")
		}
		if args[0].IsNull() {
			return sqldb.Null(), nil
		}
		f, ok := args[0].AsFloat()
		if !ok {
			return sqldb.Null(), execErrf("ROUND of non-numeric %q", args[0].String())
		}
		digits := int64(0)
		if len(args) == 2 {
			if args[1].IsNull() {
				return sqldb.Null(), nil
			}
			digits, _ = args[1].AsInt()
		}
		scale := math.Pow(10, float64(digits))
		return sqldb.Float(math.Round(f*scale) / scale), nil
	case "UPPER":
		if err := need(1); err != nil {
			return sqldb.Null(), err
		}
		if args[0].IsNull() {
			return sqldb.Null(), nil
		}
		return sqldb.Str(strings.ToUpper(args[0].String())), nil
	case "LOWER":
		if err := need(1); err != nil {
			return sqldb.Null(), err
		}
		if args[0].IsNull() {
			return sqldb.Null(), nil
		}
		return sqldb.Str(strings.ToLower(args[0].String())), nil
	case "LENGTH", "LEN":
		if err := need(1); err != nil {
			return sqldb.Null(), err
		}
		if args[0].IsNull() {
			return sqldb.Null(), nil
		}
		return sqldb.Int(int64(len(args[0].String()))), nil
	case "TRIM":
		if err := need(1); err != nil {
			return sqldb.Null(), err
		}
		if args[0].IsNull() {
			return sqldb.Null(), nil
		}
		return sqldb.Str(strings.TrimSpace(args[0].String())), nil
	case "REPLACE":
		if err := need(3); err != nil {
			return sqldb.Null(), err
		}
		for _, a := range args {
			if a.IsNull() {
				return sqldb.Null(), nil
			}
		}
		return sqldb.Str(strings.ReplaceAll(args[0].String(), args[1].String(), args[2].String())), nil
	case "SUBSTR", "SUBSTRING":
		if len(args) < 2 || len(args) > 3 {
			return sqldb.Null(), execErrf("SUBSTR expects 2 or 3 arguments")
		}
		if args[0].IsNull() || args[1].IsNull() {
			return sqldb.Null(), nil
		}
		s := args[0].String()
		start, _ := args[1].AsInt()
		if start < 1 {
			start = 1
		}
		if int(start) > len(s) {
			return sqldb.Str(""), nil
		}
		out := s[start-1:]
		if len(args) == 3 {
			if args[2].IsNull() {
				return sqldb.Null(), nil
			}
			n, _ := args[2].AsInt()
			if n < 0 {
				n = 0
			}
			if int(n) < len(out) {
				out = out[:n]
			}
		}
		return sqldb.Str(out), nil
	case "CONCAT":
		var sb strings.Builder
		for _, a := range args {
			if a.IsNull() {
				return sqldb.Null(), nil
			}
			sb.WriteString(a.String())
		}
		return sqldb.Str(sb.String()), nil
	case "TO_CHAR":
		if err := need(2); err != nil {
			return sqldb.Null(), err
		}
		if args[0].IsNull() || args[1].IsNull() {
			return sqldb.Null(), nil
		}
		out, err := toChar(args[0].String(), args[1].String())
		if err != nil {
			return sqldb.Null(), err
		}
		return sqldb.Str(out), nil
	case "YEAR":
		return datePart(name, args, func(d dateParts) int { return d.year })
	case "MONTH":
		return datePart(name, args, func(d dateParts) int { return d.month })
	case "DAY":
		return datePart(name, args, func(d dateParts) int { return d.day })
	case "QUARTER":
		return datePart(name, args, func(d dateParts) int { return (d.month-1)/3 + 1 })
	case "SIGN":
		if err := need(1); err != nil {
			return sqldb.Null(), err
		}
		if args[0].IsNull() {
			return sqldb.Null(), nil
		}
		f, ok := args[0].AsFloat()
		if !ok {
			return sqldb.Null(), execErrf("SIGN of non-numeric %q", args[0].String())
		}
		switch {
		case f > 0:
			return sqldb.Int(1), nil
		case f < 0:
			return sqldb.Int(-1), nil
		default:
			return sqldb.Int(0), nil
		}
	case "POWER", "POW":
		if err := need(2); err != nil {
			return sqldb.Null(), err
		}
		if args[0].IsNull() || args[1].IsNull() {
			return sqldb.Null(), nil
		}
		b, ok1 := args[0].AsFloat()
		p, ok2 := args[1].AsFloat()
		if !ok1 || !ok2 {
			return sqldb.Null(), execErrf("POWER of non-numeric arguments")
		}
		return sqldb.Float(math.Pow(b, p)), nil
	case "SQRT":
		if err := need(1); err != nil {
			return sqldb.Null(), err
		}
		if args[0].IsNull() {
			return sqldb.Null(), nil
		}
		f, ok := args[0].AsFloat()
		if !ok || f < 0 {
			return sqldb.Null(), execErrf("SQRT of invalid argument %q", args[0].String())
		}
		return sqldb.Float(math.Sqrt(f)), nil
	}
	return sqldb.Null(), execErrf("unknown function %s", name)
}

func datePart(name string, args []sqldb.Value, get func(dateParts) int) (sqldb.Value, error) {
	if len(args) != 1 {
		return sqldb.Null(), execErrf("%s expects 1 argument", name)
	}
	if args[0].IsNull() {
		return sqldb.Null(), nil
	}
	d, err := parseDate(args[0].String())
	if err != nil {
		return sqldb.Null(), err
	}
	return sqldb.Int(int64(get(d))), nil
}

// dateParts is a calendar date extracted from a stored string.
type dateParts struct {
	year, month, day int
}

// parseDate accepts "YYYY-MM-DD", "YYYY-MM-DD hh:mm:ss" and "YYYY-MM" forms,
// the formats the synthetic datasets store dates in. It runs once per row per
// date function, so those canonical shapes are read by parseDateCanonical
// without allocating; every other input — padding, signs, trailing junk,
// out-of-range fields — is parseDateLoose's to accept or reject.
func parseDate(s string) (dateParts, error) {
	if d, ok := parseDateCanonical(s); ok {
		return d, nil
	}
	return parseDateLoose(s)
}

// parseDateCanonical reads "YYYY-MM" or "YYYY-MM-DD", all ASCII digits, at
// the start of s and followed by nothing or by a space (the time of day).
// It accepts only strings parseDateLoose reads to the same date, and reports
// false for anything else, including canonical shapes with a month or day
// out of range, so the loose parser stays the one place errors are worded.
func parseDateCanonical(s string) (dateParts, bool) {
	if len(s) < 7 || s[4] != '-' {
		return dateParts{}, false
	}
	century, ok1 := twoDigits(s[0], s[1])
	years, ok2 := twoDigits(s[2], s[3])
	month, ok3 := twoDigits(s[5], s[6])
	if !ok1 || !ok2 || !ok3 || month < 1 || month > 12 {
		return dateParts{}, false
	}
	d := dateParts{year: century*100 + years, month: month, day: 1}
	rest := s[7:]
	if len(rest) >= 3 && rest[0] == '-' {
		day, ok := twoDigits(rest[1], rest[2])
		if !ok || day < 1 || day > 31 {
			return dateParts{}, false
		}
		d.day = day
		rest = rest[3:]
	}
	if len(rest) > 0 && rest[0] != ' ' {
		return dateParts{}, false
	}
	return d, true
}

func twoDigits(a, b byte) (int, bool) {
	a -= '0'
	b -= '0'
	if a > 9 || b > 9 {
		return 0, false
	}
	return int(a)*10 + int(b), true
}

// parseDateLoose defines which strings are dates: surrounding white space
// and anything after the first space are dropped, the rest is two or three
// "-"-separated fields each read as fmt's %d reads it (leading space and a
// sign allowed, reading stops at the first non-digit), the year field is
// exactly 4 bytes, and month and day are range-checked.
func parseDateLoose(s string) (dateParts, error) {
	s = strings.TrimSpace(s)
	if i := strings.IndexByte(s, ' '); i >= 0 {
		s = s[:i]
	}
	fields := strings.Split(s, "-")
	bad := func() (dateParts, error) {
		return dateParts{}, execErrf("cannot interpret %q as a date", s)
	}
	if len(fields) < 2 || len(fields) > 3 {
		return bad()
	}
	var d dateParts
	if _, err := fmt.Sscanf(fields[0], "%d", &d.year); err != nil || len(fields[0]) != 4 {
		return bad()
	}
	if _, err := fmt.Sscanf(fields[1], "%d", &d.month); err != nil || d.month < 1 || d.month > 12 {
		return bad()
	}
	d.day = 1
	if len(fields) == 3 {
		if _, err := fmt.Sscanf(fields[2], "%d", &d.day); err != nil || d.day < 1 || d.day > 31 {
			return bad()
		}
	}
	return d, nil
}

// toChar formats a stored date string using a warehouse-style format model.
// Supported tokens: YYYY, MM, DD, Q, and double-quoted literal runs — enough
// for the paper's 'YYYY"Q"Q' quarter bucketing and common variants.
func toChar(dateStr, format string) (string, error) {
	// No token renders wider than it is written (a year is at most 9999),
	// so a format that fits the stack buffer costs only the result string.
	var buf [32]byte
	out, err := appendToChar(buf[:0], dateStr, format)
	if err != nil {
		return "", err
	}
	return string(out), nil
}

// appendToChar appends TO_CHAR(dateStr, format) to dst. On error what it
// appended is undefined and the caller drops it.
func appendToChar(dst []byte, dateStr, format string) ([]byte, error) {
	d, err := parseDate(dateStr)
	if err != nil {
		return dst, err
	}
	i := 0
	for i < len(format) {
		switch {
		case strings.HasPrefix(format[i:], "YYYY"):
			dst = appendZeroPadded(dst, d.year, 4)
			i += 4
		case strings.HasPrefix(format[i:], "MM"):
			dst = appendZeroPadded(dst, d.month, 2)
			i += 2
		case strings.HasPrefix(format[i:], "DD"):
			dst = appendZeroPadded(dst, d.day, 2)
			i += 2
		case format[i] == 'Q':
			dst = appendZeroPadded(dst, (d.month-1)/3+1, 1)
			i++
		case format[i] == '"':
			end := strings.IndexByte(format[i+1:], '"')
			if end < 0 {
				return dst, execErrf("unterminated literal in TO_CHAR format %q", format)
			}
			dst = append(dst, format[i+1:i+1+end]...)
			i += end + 2
		default:
			dst = append(dst, format[i])
			i++
		}
	}
	return dst, nil
}

// appendZeroPadded appends v zero-padded to width digits, as fmt's %0<width>d
// renders a value that is not negative. No date part is: a "-" before the
// year would have split off an empty first field.
func appendZeroPadded(dst []byte, v, width int) []byte {
	var buf [20]byte
	digits := strconv.AppendInt(buf[:0], int64(v), 10)
	for n := len(digits); n < width; n++ {
		dst = append(dst, '0')
	}
	return append(dst, digits...)
}

// toCharCompare is sqldb.Compare(TO_CHAR(dateStr, format), lit) for a
// string literal lit, formatted on the stack instead of into a string.
// Compare orders two strings bytewise, as bytes.Compare does.
func toCharCompare(dateStr, format string, lit []byte) (int, error) {
	var buf [32]byte
	out, err := appendToChar(buf[:0], dateStr, format)
	if err != nil {
		return 0, err
	}
	return bytes.Compare(out, lit), nil
}

// toCharIn reports whether TO_CHAR(dateStr, format) equals one of lits,
// string literals (never NULL), without making the string.
func toCharIn(dateStr, format string, lits [][]byte) (bool, error) {
	var buf [32]byte
	out, err := appendToChar(buf[:0], dateStr, format)
	if err != nil {
		return false, err
	}
	for _, lit := range lits {
		if bytes.Equal(out, lit) {
			return true, nil
		}
	}
	return false, nil
}

// aggregateOver collects an aggregate's argument values over a group into a
// scratch buffer and reduces them. The buffer is released before returning:
// finishAggregate's result is a value, never a view of its input. Both
// execution paths share it (differing only in how the per-row value is
// produced), so NULL and DISTINCT semantics cannot diverge.
func aggregateOver(scr *queryScratch, name string, group []sqldb.Row, distinct bool,
	eval func(sqldb.Row) (sqldb.Value, error)) (sqldb.Value, error) {

	mark := scr.vals.mark()
	defer scr.vals.release(mark)
	vals, err := collectAggregateArgs(scr.vals.take(len(group))[:0], group, distinct, eval)
	if err != nil {
		return sqldb.Null(), err
	}
	return finishAggregate(name, vals)
}

// collectAggregateArgs appends an aggregate's non-NULL argument values over
// a group to vals (empty, with room for one value per row), deduplicating
// by Value.Key() when distinct.
func collectAggregateArgs(vals []sqldb.Value, group []sqldb.Row, distinct bool,
	eval func(sqldb.Row) (sqldb.Value, error)) ([]sqldb.Value, error) {

	var seen map[string]bool
	if distinct {
		seen = make(map[string]bool)
	}
	for _, row := range group {
		v, err := eval(row)
		if err != nil {
			return nil, err
		}
		if v.IsNull() {
			continue
		}
		if distinct {
			k := v.Key()
			if seen[k] {
				continue
			}
			seen[k] = true
		}
		vals = append(vals, v)
	}
	return vals, nil
}

// finishAggregate reduces the collected non-NULL argument values of an
// aggregate call, shared by the compiled programs and the oracle (interp_test.go).
func finishAggregate(name string, vals []sqldb.Value) (sqldb.Value, error) {
	switch name {
	case "COUNT":
		return sqldb.Int(int64(len(vals))), nil
	case "SUM", "TOTAL":
		if len(vals) == 0 {
			if name == "TOTAL" {
				return sqldb.Float(0), nil
			}
			return sqldb.Null(), nil
		}
		return sumValues(vals)
	case "AVG":
		if len(vals) == 0 {
			return sqldb.Null(), nil
		}
		sum, err := sumValues(vals)
		if err != nil {
			return sqldb.Null(), err
		}
		f, _ := sum.AsFloat()
		return sqldb.Float(f / float64(len(vals))), nil
	case "MIN":
		return extremum(vals, -1), nil
	case "MAX":
		return extremum(vals, 1), nil
	}
	return sqldb.Null(), execErrf("unknown aggregate %s", name)
}

func sumValues(vals []sqldb.Value) (sqldb.Value, error) {
	allInt := true
	for _, v := range vals {
		if v.K != sqldb.KindInt {
			allInt = false
			break
		}
	}
	if allInt {
		var total int64
		for _, v := range vals {
			total += v.I
		}
		return sqldb.Int(total), nil
	}
	var total float64
	for _, v := range vals {
		f, ok := v.AsFloat()
		if !ok {
			return sqldb.Null(), execErrf("SUM of non-numeric value %q", v.String())
		}
		total += f
	}
	return sqldb.Float(total), nil
}

func extremum(vals []sqldb.Value, dir int) sqldb.Value {
	if len(vals) == 0 {
		return sqldb.Null()
	}
	best := vals[0]
	for _, v := range vals[1:] {
		c, ok := sqldb.Compare(v, best)
		if ok && c*dir > 0 {
			best = v
		}
	}
	return best
}
