package loadbalance

// Migrations counts items a plan actually moves.
func Migrations(items []Item, plan Plan) int {
	n := 0
	for _, it := range items {
		if to, ok := plan[it.ID]; ok && to != it.PE {
			n++
		}
	}
	return n
}
