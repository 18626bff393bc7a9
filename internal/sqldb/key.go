package sqldb

import "strconv"

// Length-prefixed composite key encoding, shared by every multi-column
// hashing site in the executor (GROUP BY, DISTINCT, compound set operations,
// window partitions, hash-join buckets). A bare delimiter byte between
// components would let values containing that byte alias across column
// boundaries ("a\x1f"+"b" vs "a"+"\x1fb"); prefixing each component with its
// decimal length makes the encoding injective over component sequences.

// AppendLengthPrefixed appends one component to dst as "<len>|<s>" and
// returns the extended buffer.
func AppendLengthPrefixed(dst []byte, s string) []byte {
	dst = strconv.AppendInt(dst, int64(len(s)), 10)
	dst = append(dst, '|')
	return append(dst, s...)
}

// AppendValueKey appends the length-prefixed grouping key of v (see
// Value.Key) to dst. Integers and strings — what GROUP BY and DISTINCT keys
// are made of — are written piecewise, so no Key string is built for them.
func AppendValueKey(dst []byte, v Value) []byte {
	switch v.K {
	case KindInt:
		var num [20]byte
		digits := strconv.AppendInt(num[:0], v.I, 10)
		dst = strconv.AppendInt(dst, int64(1+len(digits)), 10)
		dst = append(dst, '|', '#')
		return append(dst, digits...)
	case KindString:
		dst = strconv.AppendInt(dst, int64(1+len(v.S)), 10)
		dst = append(dst, '|', 's')
		return append(dst, v.S...)
	}
	return AppendLengthPrefixed(dst, v.Key())
}

// AppendCompositeKey appends the row's composite grouping key to dst and
// returns the extended buffer. This is the allocation-free variant of
// CompositeKey for hot loops that hash many rows: callers reuse one scratch
// buffer (typically from a sync.Pool) across rows instead of materializing a
// fresh byte slice per row.
func AppendCompositeKey(dst []byte, row Row) []byte {
	for _, v := range row {
		dst = AppendValueKey(dst, v)
	}
	return dst
}

// CompositeKey returns the concatenated length-prefixed grouping keys of the
// row's values: two rows share a composite key iff they are pairwise Key()
// equal, regardless of delimiter bytes inside string values.
func CompositeKey(row Row) string {
	return string(AppendCompositeKey(nil, row))
}
