package dispatch

// heap is a binary heap ordered by less: items[0] is the least element.
// Hand-rolled rather than container/heap, whose Push(any)/Pop() box every
// element — one allocation per ingested event on the steady-state path the
// alloc gates pin at zero. less compares through pointers so the sift loops
// never copy an element to compare it.
type heap[T any] struct {
	items []T
	less  func(a, b *T) bool
}

func (h *heap[T]) push(x T) {
	h.items = append(h.items, x)
	s := h.items
	for i := len(s) - 1; i > 0; {
		parent := (i - 1) / 2
		if !h.less(&s[i], &s[parent]) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

// pop removes and returns items[0]. The vacated slot is zeroed so the
// backing array keeps no Task/Worker pointer alive.
func (h *heap[T]) pop() T {
	s := h.items
	n := len(s) - 1
	top := s[0]
	s[0] = s[n]
	clear(s[n:])
	s = s[:n]
	h.items = s
	for i := 0; ; {
		kid := 2*i + 1
		if kid >= n {
			break
		}
		if r := kid + 1; r < n && h.less(&s[r], &s[kid]) {
			kid = r
		}
		if !h.less(&s[kid], &s[i]) {
			break
		}
		s[i], s[kid] = s[kid], s[i]
		i = kid
	}
	return top
}
