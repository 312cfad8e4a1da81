package wire

// Remaining returns the number of unread bytes.
func (d *StringDecoder) Remaining() int { return len(d.s) }

// Int reads a zig-zag varint and narrows it.
func (d *StringDecoder) Int() int {
	u := d.Uint64()
	return int(int64(u>>1) ^ -int64(u&1))
}
