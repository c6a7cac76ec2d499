exception Kernel_bug of string

let bug fmt = Format.kasprintf (fun msg -> raise (Kernel_bug msg)) fmt
