type t = { words : int array; n : int }

let bits_per_word = Sys.int_size

let create n =
  if n < 0 then invalid_arg "Bitset.create";
  { words = Array.make ((n + bits_per_word - 1) / bits_per_word + 1) 0; n }

let capacity t = t.n

let check t i =
  if i < 0 || i >= t.n then invalid_arg "Bitset: index out of bounds"

let mem t i =
  check t i;
  t.words.(i / bits_per_word) land (1 lsl (i mod bits_per_word)) <> 0

let add t i =
  check t i;
  let w = i / bits_per_word in
  t.words.(w) <- t.words.(w) lor (1 lsl (i mod bits_per_word))

let remove t i =
  check t i;
  let w = i / bits_per_word in
  t.words.(w) <- t.words.(w) land lnot (1 lsl (i mod bits_per_word))

let clear t = Array.fill t.words 0 (Array.length t.words) 0
let copy t = { words = Array.copy t.words; n = t.n }

let union_into ~src dst =
  if src.n <> dst.n then invalid_arg "Bitset.union_into";
  let changed = ref false in
  for w = 0 to Array.length src.words - 1 do
    let v = dst.words.(w) lor src.words.(w) in
    if v <> dst.words.(w) then begin
      dst.words.(w) <- v;
      changed := true
    end
  done;
  !changed

let union_diff_into ~src ~minus dst =
  if src.n <> dst.n || minus.n <> dst.n then invalid_arg "Bitset.union_diff_into";
  let changed = ref false in
  for w = 0 to Array.length src.words - 1 do
    let v = dst.words.(w) lor (src.words.(w) land lnot minus.words.(w)) in
    if v <> dst.words.(w) then begin
      dst.words.(w) <- v;
      changed := true
    end
  done;
  !changed

let equal a b = a.n = b.n && a.words = b.words

let iter f t =
  for w = 0 to Array.length t.words - 1 do
    let word = t.words.(w) in
    if word <> 0 then
      for b = 0 to bits_per_word - 1 do
        if word land (1 lsl b) <> 0 then f ((w * bits_per_word) + b)
      done
  done

let fold f t acc =
  let acc = ref acc in
  iter (fun i -> acc := f i !acc) t;
  !acc

let count t =
  let c = ref 0 in
  iter (fun _ -> incr c) t;
  !c

let to_list t = List.rev (fold (fun i acc -> i :: acc) t [])
