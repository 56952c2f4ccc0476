package opencl

import "testing"

func TestEnqueueCopy(t *testing.T) {
	ctx, q := newCPUQueue(t)
	srcBuf := NewBuffer[float32](ctx, "src", 128)
	src := Data[float32](srcBuf)
	dstBuf := NewBuffer[float32](ctx, "dst", 128)
	dst := Data[float32](dstBuf)
	for i := range src {
		src[i] = float32(i)
	}
	ev, err := q.EnqueueCopy(dstBuf, srcBuf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range dst {
		if dst[i] != float32(i) {
			t.Fatalf("dst[%d] = %f", i, dst[i])
		}
	}
	if ev.Kind != CommandCopy || ev.DurationNs() <= 0 || ev.Bytes != 512 {
		t.Fatalf("copy event %+v", ev)
	}
	if CommandCopy.String() != "copy" || CommandFill.String() != "fill" {
		t.Fatal("command kind names")
	}
}

func TestEnqueueCopyValidation(t *testing.T) {
	ctx, q := newCPUQueue(t)
	small := NewBuffer[float32](ctx, "small", 8)
	big := NewBuffer[float32](ctx, "big", 16)
	ints := NewBuffer[int32](ctx, "ints", 16)
	if _, err := q.EnqueueCopy(small, big); err == nil {
		t.Fatal("oversized copy accepted")
	}
	if _, err := q.EnqueueCopy(ints, big); err == nil {
		t.Fatal("type-confused copy accepted")
	}
}

func TestEnqueueCopyAllTypes(t *testing.T) {
	ctx, q := newCPUQueue(t)
	check := func(name string, mk func() (*Buffer, *Buffer), verify func() bool) {
		dst, src := mk()
		if _, err := q.EnqueueCopy(dst, src); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !verify() {
			t.Fatalf("%s: payload not copied", name)
		}
	}
	{
		db := NewBuffer[int32](ctx, "d32", 4)
		d := Data[int32](db)
		sb := NewBuffer[int32](ctx, "s32", 4)
		s := Data[int32](sb)
		s[2] = 7
		check("int32", func() (*Buffer, *Buffer) { return db, sb }, func() bool { return d[2] == 7 })
	}
	{
		db := NewBuffer[uint8](ctx, "d8", 4)
		d := Data[uint8](db)
		sb := NewBuffer[uint8](ctx, "s8", 4)
		s := Data[uint8](sb)
		s[1] = 9
		check("uint8", func() (*Buffer, *Buffer) { return db, sb }, func() bool { return d[1] == 9 })
	}
	{
		db := NewBuffer[complex64](ctx, "dc", 4)
		d := Data[complex64](db)
		sb := NewBuffer[complex64](ctx, "sc", 4)
		s := Data[complex64](sb)
		s[3] = complex(1, 2)
		check("complex64", func() (*Buffer, *Buffer) { return db, sb }, func() bool { return d[3] == complex(1, 2) })
	}
	{
		db := NewBuffer[float64](ctx, "d64", 4)
		d := Data[float64](db)
		sb := NewBuffer[float64](ctx, "s64", 4)
		s := Data[float64](sb)
		s[0] = 3.5
		check("float64", func() (*Buffer, *Buffer) { return db, sb }, func() bool { return d[0] == 3.5 })
	}
	{
		db := NewBuffer[uint64](ctx, "du", 4)
		d := Data[uint64](db)
		sb := NewBuffer[uint64](ctx, "su", 4)
		s := Data[uint64](sb)
		s[0] = 11
		check("uint64", func() (*Buffer, *Buffer) { return db, sb }, func() bool { return d[0] == 11 })
	}
	{
		db := NewBuffer[uint32](ctx, "du32", 4)
		d := Data[uint32](db)
		sb := NewBuffer[uint32](ctx, "su32", 4)
		s := Data[uint32](sb)
		s[0] = 13
		check("uint32", func() (*Buffer, *Buffer) { return db, sb }, func() bool { return d[0] == 13 })
	}
}

func TestEnqueueFill(t *testing.T) {
	ctx, q := newCPUQueue(t)
	buf := NewBuffer[int32](ctx, "x", 64)
	data := Data[int32](buf)
	for i := range data {
		data[i] = int32(i + 1)
	}
	ev := q.EnqueueFill(buf)
	for i, v := range data {
		if v != 0 {
			t.Fatalf("fill left data[%d] = %d", i, v)
		}
	}
	if ev.Kind != CommandFill || ev.DurationNs() <= 0 {
		t.Fatalf("fill event %+v", ev)
	}
}

func TestCopyFillSimulateOnly(t *testing.T) {
	ctx, q := newCPUQueue(t)
	q.SetSimulateOnly(true)
	srcBuf := NewBuffer[float32](ctx, "src", 8)
	src := Data[float32](srcBuf)
	dstBuf := NewBuffer[float32](ctx, "dst", 8)
	dst := Data[float32](dstBuf)
	src[0] = 5
	if _, err := q.EnqueueCopy(dstBuf, srcBuf); err != nil {
		t.Fatal(err)
	}
	if dst[0] != 0 {
		t.Fatal("simulate-only copy moved data")
	}
	q.EnqueueFill(srcBuf)
	if src[0] != 5 {
		t.Fatal("simulate-only fill cleared data")
	}
	if len(q.Events()) != 2 {
		t.Fatal("events not recorded in simulate-only mode")
	}
}

// Copy and fill on an executing queue allocate a backing no one has
// touched; on a simulate-only queue they leave it unallocated.
func TestCopyFillUntouchedBuffers(t *testing.T) {
	ctx, q := newCPUQueue(t)
	src := NewBuffer[uint8](ctx, "src", 4)
	Data[uint8](src)[2] = 9
	dst := NewBuffer[uint8](ctx, "dst", 4)
	if _, err := q.EnqueueCopy(dst, src); err != nil {
		t.Fatal(err)
	}
	if d := Data[uint8](dst); len(d) != 4 || d[2] != 9 {
		t.Fatalf("copy into an untouched buffer gave %v", d)
	}
	if _, err := q.EnqueueCopy(src, NewBuffer[uint8](ctx, "zeros", 4)); err != nil {
		t.Fatal(err)
	}
	if s := Data[uint8](src); s[2] != 0 {
		t.Fatalf("copy from an untouched buffer gave %v", s)
	}
	fill := NewBuffer[int32](ctx, "fill", 8)
	q.EnqueueFill(fill)
	if d := Data[int32](fill); len(d) != 8 {
		t.Fatalf("fill of an untouched buffer gave %d elements", len(d))
	}

	q.SetSimulateOnly(true)
	a, b := NewBuffer[float32](ctx, "a", 8), NewBuffer[float32](ctx, "b", 8)
	if _, err := q.EnqueueCopy(a, b); err != nil {
		t.Fatal(err)
	}
	q.EnqueueFill(a)
	if a.data != nil || b.data != nil {
		t.Fatal("simulate-only copy or fill allocated a backing")
	}
}
