module repro

go 1.24
