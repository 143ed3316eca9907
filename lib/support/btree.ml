(* A classic B-tree of minimum degree [degree]. Every node allocates its
   full key/value/child capacity up front, which keeps the rebalancing
   arithmetic simple and allocation-free. Deletion uses the standard
   rebalance-on-the-way-down algorithm (CLRS). *)

let degree = 8
let max_keys = (2 * degree) - 1
let max_children = 2 * degree

type 'a node = {
  keys : int array;  (** capacity [max_keys] *)
  mutable values : 'a array;  (** capacity [max_keys]; empty until first use *)
  mutable nkeys : int;
  mutable children : 'a node array;  (** capacity [max_children] or [||] *)
  mutable leaf : bool;
}

type 'a t = { mutable root : 'a node; mutable size : int }

let new_node () =
  { keys = Array.make max_keys 0; values = [||]; nkeys = 0; children = [||]; leaf = true }

let create () = { root = new_node (); size = 0 }
let length t = t.size
let is_empty t = t.size = 0

let ensure_values n (v : 'a) =
  if Array.length n.values = 0 then n.values <- Array.make max_keys v

let ensure_children n (c : 'a node) =
  if Array.length n.children = 0 then n.children <- Array.make max_children c

(* index of first key >= k *)
let lower_bound n k =
  let lo = ref 0 and hi = ref n.nkeys in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if n.keys.(mid) < k then lo := mid + 1 else hi := mid
  done;
  !lo

(* ---------------- search ---------------- *)

let rec find_node n k =
  let i = lower_bound n k in
  if i < n.nkeys && n.keys.(i) = k then Some n.values.(i)
  else if n.leaf then None
  else find_node n.children.(i) k

let find t k = if t.size = 0 then None else find_node t.root k
let mem t k = Option.is_some (find t k)

let rec find_le_node n k best =
  let i = lower_bound n k in
  if i < n.nkeys && n.keys.(i) = k then Some (k, n.values.(i))
  else
    let best = if i > 0 then Some (n.keys.(i - 1), n.values.(i - 1)) else best in
    if n.leaf then best else find_le_node n.children.(i) k best

let find_le t k = if t.size = 0 then None else find_le_node t.root k None

let rec find_ge_node n k best =
  let i = lower_bound n k in
  if i < n.nkeys && n.keys.(i) = k then Some (k, n.values.(i))
  else
    let best = if i < n.nkeys then Some (n.keys.(i), n.values.(i)) else best in
    if n.leaf then best else find_ge_node n.children.(i) k best

let find_ge t k = if t.size = 0 then None else find_ge_node t.root k None

let rec min_node n =
  if n.leaf then if n.nkeys = 0 then None else Some (n.keys.(0), n.values.(0))
  else min_node n.children.(0)

let min_binding t = min_node t.root

let rec max_node n =
  if n.leaf then
    if n.nkeys = 0 then None else Some (n.keys.(n.nkeys - 1), n.values.(n.nkeys - 1))
  else max_node n.children.(n.nkeys)

let max_binding t = max_node t.root

let rec iter_node f n =
  if n.leaf then
    for i = 0 to n.nkeys - 1 do
      f n.keys.(i) n.values.(i)
    done
  else begin
    for i = 0 to n.nkeys - 1 do
      iter_node f n.children.(i);
      f n.keys.(i) n.values.(i)
    done;
    iter_node f n.children.(n.nkeys)
  end

let iter f t = iter_node f t.root

(* Child [j] holds the keys between [keys.(j-1)] and [keys.(j)]; the walk
   starts at the first key [>= lo] and stops at the first key [>= hi], so
   it descends only into children that can hold keys of the range. *)
let rec exists_range_node n lo hi p =
  let rec go j =
    ((not n.leaf) && exists_range_node n.children.(j) lo hi p)
    || j < n.nkeys
       && n.keys.(j) < hi
       && (p n.keys.(j) n.values.(j) || go (j + 1))
  in
  go (lower_bound n lo)

let exists_range t ~lo ~hi p = t.size > 0 && exists_range_node t.root lo hi p

let to_list t =
  let acc = ref [] in
  iter (fun k v -> acc := (k, v) :: !acc) t;
  List.rev !acc

(* ---------------- insertion ---------------- *)

(* Split the full child [ci] of non-full internal node [parent]. *)
let split_child parent ci =
  let child = parent.children.(ci) in
  let right = new_node () in
  right.leaf <- child.leaf;
  ensure_values right child.values.(0);
  right.nkeys <- degree - 1;
  Array.blit child.keys degree right.keys 0 (degree - 1);
  Array.blit child.values degree right.values 0 (degree - 1);
  if not child.leaf then begin
    ensure_children right child.children.(0);
    Array.blit child.children degree right.children 0 degree
  end;
  let mkey = child.keys.(degree - 1) and mval = child.values.(degree - 1) in
  child.nkeys <- degree - 1;
  (* shift parent entries/children right *)
  ensure_values parent mval;
  for i = parent.nkeys - 1 downto ci do
    parent.keys.(i + 1) <- parent.keys.(i);
    parent.values.(i + 1) <- parent.values.(i)
  done;
  for i = parent.nkeys downto ci + 1 do
    parent.children.(i + 1) <- parent.children.(i)
  done;
  parent.children.(ci + 1) <- right;
  parent.keys.(ci) <- mkey;
  parent.values.(ci) <- mval;
  parent.nkeys <- parent.nkeys + 1

let rec insert_nonfull n k v added =
  let i = lower_bound n k in
  if i < n.nkeys && n.keys.(i) = k then n.values.(i) <- v
  else if n.leaf then begin
    ensure_values n v;
    for j = n.nkeys - 1 downto i do
      n.keys.(j + 1) <- n.keys.(j);
      n.values.(j + 1) <- n.values.(j)
    done;
    n.keys.(i) <- k;
    n.values.(i) <- v;
    n.nkeys <- n.nkeys + 1;
    added := true
  end
  else begin
    let i =
      if n.children.(i).nkeys = max_keys then begin
        split_child n i;
        if k > n.keys.(i) then i + 1 else i
      end
      else i
    in
    (* the split may have moved the equal key up *)
    if i < n.nkeys && n.keys.(i) = k then n.values.(i) <- v
    else insert_nonfull n.children.(i) k v added
  end

let insert t k v =
  (if t.root.nkeys = max_keys then begin
     let old_root = t.root in
     let new_root = new_node () in
     new_root.leaf <- false;
     ensure_children new_root old_root;
     new_root.children.(0) <- old_root;
     t.root <- new_root;
     split_child new_root 0
   end);
  let added = ref false in
  insert_nonfull t.root k v added;
  if !added then t.size <- t.size + 1

(* ---------------- deletion ---------------- *)

let remove_at_leaf n i =
  for j = i to n.nkeys - 2 do
    n.keys.(j) <- n.keys.(j + 1);
    n.values.(j) <- n.values.(j + 1)
  done;
  n.nkeys <- n.nkeys - 1

let rec max_entry n =
  if n.leaf then (n.keys.(n.nkeys - 1), n.values.(n.nkeys - 1))
  else max_entry n.children.(n.nkeys)

let rec min_entry n =
  if n.leaf then (n.keys.(0), n.values.(0)) else min_entry n.children.(0)

(* merge key i and child i+1 into child i (both children have degree-1 keys) *)
let merge_children n i =
  let l = n.children.(i) and r = n.children.(i + 1) in
  ensure_values l n.values.(i);
  l.keys.(l.nkeys) <- n.keys.(i);
  l.values.(l.nkeys) <- n.values.(i);
  Array.blit r.keys 0 l.keys (l.nkeys + 1) r.nkeys;
  if Array.length r.values > 0 then begin
    ensure_values l r.values.(0);
    Array.blit r.values 0 l.values (l.nkeys + 1) r.nkeys
  end;
  if not l.leaf then Array.blit r.children 0 l.children (l.nkeys + 1) (r.nkeys + 1);
  l.nkeys <- l.nkeys + 1 + r.nkeys;
  (* remove key i and child i+1 from n *)
  for j = i to n.nkeys - 2 do
    n.keys.(j) <- n.keys.(j + 1);
    n.values.(j) <- n.values.(j + 1)
  done;
  for j = i + 1 to n.nkeys - 1 do
    n.children.(j) <- n.children.(j + 1)
  done;
  n.nkeys <- n.nkeys - 1

(* make sure child [i] has at least [degree] keys before descending *)
let fill_child n i =
  let c = n.children.(i) in
  if c.nkeys >= degree then ()
  else if i > 0 && n.children.(i - 1).nkeys >= degree then begin
    (* borrow from the left sibling *)
    let l = n.children.(i - 1) in
    ensure_values c n.values.(i - 1);
    for j = c.nkeys - 1 downto 0 do
      c.keys.(j + 1) <- c.keys.(j);
      c.values.(j + 1) <- c.values.(j)
    done;
    if not c.leaf then begin
      for j = c.nkeys downto 0 do
        c.children.(j + 1) <- c.children.(j)
      done;
      c.children.(0) <- l.children.(l.nkeys)
    end;
    c.keys.(0) <- n.keys.(i - 1);
    c.values.(0) <- n.values.(i - 1);
    c.nkeys <- c.nkeys + 1;
    n.keys.(i - 1) <- l.keys.(l.nkeys - 1);
    n.values.(i - 1) <- l.values.(l.nkeys - 1);
    l.nkeys <- l.nkeys - 1
  end
  else if i < n.nkeys && n.children.(i + 1).nkeys >= degree then begin
    (* borrow from the right sibling *)
    let r = n.children.(i + 1) in
    ensure_values c n.values.(i);
    c.keys.(c.nkeys) <- n.keys.(i);
    c.values.(c.nkeys) <- n.values.(i);
    if not c.leaf then c.children.(c.nkeys + 1) <- r.children.(0);
    c.nkeys <- c.nkeys + 1;
    n.keys.(i) <- r.keys.(0);
    n.values.(i) <- r.values.(0);
    for j = 0 to r.nkeys - 2 do
      r.keys.(j) <- r.keys.(j + 1);
      r.values.(j) <- r.values.(j + 1)
    done;
    if not r.leaf then
      for j = 0 to r.nkeys - 1 do
        r.children.(j) <- r.children.(j + 1)
      done;
    r.nkeys <- r.nkeys - 1
  end
  else if i < n.nkeys then merge_children n i
  else merge_children n (i - 1)

let rec remove_node n k removed =
  let i = lower_bound n k in
  if i < n.nkeys && n.keys.(i) = k then begin
    removed := true;
    if n.leaf then remove_at_leaf n i
    else if n.children.(i).nkeys >= degree then begin
      let pk, pv = max_entry n.children.(i) in
      n.keys.(i) <- pk;
      n.values.(i) <- pv;
      let r2 = ref false in
      remove_node n.children.(i) pk r2
    end
    else if n.children.(i + 1).nkeys >= degree then begin
      let sk, sv = min_entry n.children.(i + 1) in
      n.keys.(i) <- sk;
      n.values.(i) <- sv;
      let r2 = ref false in
      remove_node n.children.(i + 1) sk r2
    end
    else begin
      merge_children n i;
      let r2 = ref false in
      remove_node n.children.(i) k r2
    end
  end
  else if not n.leaf then begin
    fill_child n i;
    (* the fill may have shifted the key positions *)
    let i = lower_bound n k in
    if i < n.nkeys && n.keys.(i) = k then remove_node n k removed
    else remove_node n.children.(min i n.nkeys) k removed
  end

let remove t k =
  if t.size > 0 then begin
    let removed = ref false in
    remove_node t.root k removed;
    if t.root.nkeys = 0 && not t.root.leaf then t.root <- t.root.children.(0);
    if !removed then t.size <- t.size - 1
  end
