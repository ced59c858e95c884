module fielddb

go 1.24
