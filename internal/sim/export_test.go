package sim

// SwapDeliveryMode replaces the delivery buffers of ex, which must not have
// played a round yet, with a fresh set in the other delivery mode, and
// reports whether the new set is dense. The run is otherwise untouched, so
// it plays on as it would have in its own mode if the two modes agree.
func SwapDeliveryMode(ex *Execution) (dense bool) {
	ex.buf = newBuffers(ex.view.Dual, !ex.buf.dense)
	ex.sink.buf = ex.buf
	return ex.buf.dense
}
