module migflow/bench

go 1.22

require migflow v0.0.0

replace migflow => ../
