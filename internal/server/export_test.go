package server

// BC returns a copy of the current scores.
func (e *Entry) BC() ([]float64, error) {
	inc, err := e.ready()
	if err != nil {
		return nil, err
	}
	return inc.Snapshot().BC(), nil
}
