package par

// Size returns the total number of buffered values.
func (b *Bag[T]) Size() int {
	s := 0
	for _, p := range b.parts {
		s += len(p)
	}
	return s
}
