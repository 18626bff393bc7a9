package sqlexec

import (
	"fmt"
	"strings"
	"testing"

	"genedit/internal/sqldb"
)

// The date kernels' oracle is the code they replaced. parseDate's former
// body lives on unchanged as parseDateLoose (the production fallback for
// non-canonical input), so it is the parse oracle as it stands; toChar's
// former body, which formatted through fmt, is kept here verbatim.

func oracleToChar(dateStr, format string) (string, error) {
	d, err := parseDateLoose(dateStr)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	i := 0
	for i < len(format) {
		switch {
		case strings.HasPrefix(format[i:], "YYYY"):
			fmt.Fprintf(&sb, "%04d", d.year)
			i += 4
		case strings.HasPrefix(format[i:], "MM"):
			fmt.Fprintf(&sb, "%02d", d.month)
			i += 2
		case strings.HasPrefix(format[i:], "DD"):
			fmt.Fprintf(&sb, "%02d", d.day)
			i += 2
		case format[i] == 'Q':
			fmt.Fprintf(&sb, "%d", (d.month-1)/3+1)
			i++
		case format[i] == '"':
			end := strings.IndexByte(format[i+1:], '"')
			if end < 0 {
				return "", execErrf("unterminated literal in TO_CHAR format %q", format)
			}
			sb.WriteString(format[i+1 : i+1+end])
			i += end + 2
		default:
			sb.WriteByte(format[i])
			i++
		}
	}
	return sb.String(), nil
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// checkDateKernels asserts parseDate and toChar agree with their oracles on
// one input: same parts, same output, same error text.
func checkDateKernels(t *testing.T, date, format string) {
	t.Helper()
	got, gotErr := parseDate(date)
	want, wantErr := parseDateLoose(date)
	if got != want || errText(gotErr) != errText(wantErr) {
		t.Errorf("parseDate(%q) = %+v, %q; oracle %+v, %q", date, got, errText(gotErr), want, errText(wantErr))
	}
	gotS, gotErr := toChar(date, format)
	wantS, wantErr := oracleToChar(date, format)
	if gotS != wantS || errText(gotErr) != errText(wantErr) {
		t.Errorf("toChar(%q, %q) = %q, %q; oracle %q, %q", date, format, gotS, errText(gotErr), wantS, errText(wantErr))
	}
}

// dateShapes pins what counts as a date, one odd shape per row, so the
// contract reads without running the fuzzer. A zero want is a rejection
// whose error quotes quoted.
var dateShapes = []struct {
	in     string
	want   dateParts
	quoted string
}{
	{in: "2024-05", want: dateParts{2024, 5, 1}},
	{in: "2024-05-17", want: dateParts{2024, 5, 17}},
	{in: "2024-05-17 10:30:00", want: dateParts{2024, 5, 17}},
	{in: "  2024-05-17  ", want: dateParts{2024, 5, 17}},
	{in: "2024-05 ", want: dateParts{2024, 5, 1}},
	{in: "0000-01-01", want: dateParts{0, 1, 1}},
	{in: "+024-05-01", want: dateParts{24, 5, 1}},                // a sign is part of the 4 year bytes
	{in: "12\t4-05", want: dateParts{12, 5, 1}},                  // reading stops at the first non-digit
	{in: "2024-1x-05", want: dateParts{2024, 1, 5}},              // so month "1x" is 1
	{in: "2024-\t05", want: dateParts{2024, 5, 1}},               // leading space in a field is skipped
	{in: "2024-5-7", want: dateParts{2024, 5, 7}},                // fields need no padding
	{in: "2024-05-011", want: dateParts{2024, 5, 11}},            // nor a fixed width, the year apart
	{in: "2024-05-01T10:00:00", want: dateParts{2024, 5, 1}},     // only a space starts the time
	{in: "2024-05-01\t", want: dateParts{2024, 5, 1}},            // trailing white space is trimmed
	{in: "2024-05-01\n", want: dateParts{2024, 5, 1}},            //
	{in: "2024-05-1 ", want: dateParts{2024, 5, 1}},              //
	{in: "", quoted: ""},                                         //
	{in: "2024", quoted: "2024"},                                 // one field
	{in: "2024-05-01-02-03", quoted: "2024-05-01-02-03"},         // five fields
	{in: "-024-05-01", quoted: "-024-05-01"},                     // a leading "-" is an empty first field
	{in: "2024_-05", quoted: "2024_-05"},                         // 5-byte year
	{in: "24-05-01", quoted: "24-05-01"},                         // 2-byte year
	{in: "2024-00", quoted: "2024-00"},                           // month out of range
	{in: "2024-13-01", quoted: "2024-13-01"},                     //
	{in: "2024-05-00", quoted: "2024-05-00"},                     // day out of range
	{in: "2024-05-32", quoted: "2024-05-32"},                     //
	{in: "2024-05-", quoted: "2024-05-"},                         // empty day
	{in: "2024-\n05", quoted: "2024-\n05"},                       // a newline is not skipped
	{in: "2024- 05", quoted: "2024-"},                            // the error quotes the time-stripped string
	{in: " 2024-13-01 10:00:00\t", quoted: "2024-13-01"},         // and the trimmed one
	{in: "2024-05-17\u00a010:30", want: dateParts{2024, 5, 17}},  // a no-break space does not start the time
	{in: "\u20032024-05-17\u00a0", want: dateParts{2024, 5, 17}}, // but is trimmed like any Unicode space
}

func TestDateShapes(t *testing.T) {
	for _, tc := range dateShapes {
		got, err := parseDate(tc.in)
		if tc.want != (dateParts{}) {
			if err != nil || got != tc.want {
				t.Errorf("parseDate(%q) = %+v, %v; want %+v", tc.in, got, err, tc.want)
			}
		} else {
			want := fmt.Sprintf("execution error: cannot interpret %q as a date", tc.quoted)
			if errText(err) != want {
				t.Errorf("parseDate(%q) error = %q; want %q", tc.in, errText(err), want)
			}
		}
		for _, format := range []string{"YYYY-MM-DD", `YYYY"Q"Q`} {
			checkDateKernels(t, tc.in, format)
		}
	}
}

func TestToCharFormats(t *testing.T) {
	for _, tc := range []struct{ date, format, want, err string }{
		{date: "2024-05-17", format: `YYYY"Q"Q`, want: "2024Q2"},
		{date: "2024-11", format: "DD/MM/YYYY", want: "01/11/2024"},
		{date: "+024-05-01", format: "YYYY", want: "0024"},
		{date: "2024-12-31 23:59:59", format: `"FY"YYYY "M"MM Q`, want: "FY2024 M12 4"},
		{date: "2024-05-17", format: "YYYYY YYY M D", want: "2024Y YYY M D"},
		{date: "2024-05-17", format: "", want: ""},
		{date: "2024-05-17", format: `YYYY"Q`, err: `execution error: unterminated literal in TO_CHAR format "YYYY\"Q"`},
		{date: "2024-13-17", format: `YYYY"Q`, err: `execution error: cannot interpret "2024-13-17" as a date`},
	} {
		got, err := toChar(tc.date, tc.format)
		if got != tc.want || errText(err) != tc.err {
			t.Errorf("toChar(%q, %q) = %q, %q; want %q, %q", tc.date, tc.format, got, errText(err), tc.want, tc.err)
		}
		checkDateKernels(t, tc.date, tc.format)
	}
}

// FuzzDateKernels is the differential check behind the table above: for any
// (date, format) the allocation-free kernels and their oracles return the
// same parts, the same TO_CHAR output and the same error text. The seed
// corpus in testdata/fuzz/FuzzDateKernels holds the odd shapes.
func FuzzDateKernels(f *testing.F) {
	for _, tc := range dateShapes {
		f.Add(tc.in, `YYYY"Q"Q-MM-DD`)
	}
	f.Fuzz(func(t *testing.T, date, format string) {
		checkDateKernels(t, date, format)
	})
}

// TestDateKernelsDoNotAllocate pins the point of the kernels: a date
// function over a canonical stored value costs no allocation per row, and
// TO_CHAR costs exactly its result string.
func TestDateKernelsDoNotAllocate(t *testing.T) {
	canonical := []string{"2024-05", "2024-05-17", "2024-05-17 10:30:00"}
	var sink dateParts
	if n := testing.AllocsPerRun(100, func() {
		for _, s := range canonical {
			sink, _ = parseDate(s)
		}
	}); n != 0 {
		t.Errorf("parseDate on canonical shapes: %v allocs per run, want 0", n)
	}
	_ = sink

	var out sqldb.Value
	for _, name := range []string{"YEAR", "QUARTER"} {
		args := []sqldb.Value{sqldb.Str("2024-05-17")}
		if n := testing.AllocsPerRun(100, func() {
			out, _ = applyScalarFunc(name, args)
		}); n != 0 {
			t.Errorf("%s: %v allocs per call, want 0", name, n)
		}
	}
	args := []sqldb.Value{sqldb.Str("2024-05-17"), sqldb.Str(`YYYY"Q"Q`)}
	if n := testing.AllocsPerRun(100, func() {
		out, _ = applyScalarFunc("TO_CHAR", args)
	}); n > 1 {
		t.Errorf("TO_CHAR: %v allocs per call, want at most 1 (the result)", n)
	}
	if out.S != "2024Q2" {
		t.Errorf("TO_CHAR = %q, want 2024Q2", out.S)
	}
}
