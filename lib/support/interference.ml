(* Segment end -> (start, owner); owner [fixed] marks a reservation.
   Keying by end is what makes the queries short: the segments are
   disjoint, so sorted by end they are also sorted by start, and the first
   one ending after [s] is the only one on the left that can reach [s]. *)
type t = (int * int) Btree.t

let fixed = -1
let create () = Btree.create ()

(* Walk the segments ending at or after [s] until one starts after the
   (growing) merged end; fixed segments are kept non-touching, so every one
   to merge is met. *)
let merge_fixed u s e =
  let lo = ref s and hi = ref e and merged = ref [] in
  ignore
    (Btree.exists_range u ~lo:s ~hi:max_int (fun ke (ks, o) ->
         if ks > !hi then true
         else if o = fixed then begin
           lo := min !lo ks;
           hi := max !hi ke;
           merged := ke :: !merged;
           false
         end
         else if ke > s && ks < e then
           invalid_arg "Interference.add_fixed: overlaps a virtual register segment"
         else false));
  List.iter (Btree.remove u) !merged;
  Btree.insert u !hi (!lo, fixed)

(* Usually nothing ends at or after [s] and starts by [e]: no walk. *)
let add_fixed u s e =
  match Btree.find_ge u s with
  | Some (_, (ks, _)) when ks <= e -> merge_fixed u s e
  | _ -> Btree.insert u e (s, fixed)

let add u v s e = Btree.insert u e (s, v)
let remove u _s e = Btree.remove u e

let conflicts u s e =
  match Btree.find_ge u (s + 1) with Some (_, (ks, _)) -> ks < e | None -> false

let evictees u segs ~evictable =
  let owners = ref [] in
  let blocked (s, e) =
    let stop = ref false in
    ignore
      (Btree.exists_range u ~lo:(s + 1) ~hi:max_int (fun _ (ks, o) ->
           if ks >= e then true
           else if o = fixed || not (evictable o) then begin
             stop := true;
             true
           end
           else begin
             owners := o :: !owners;
             false
           end));
    !stop
  in
  if List.exists blocked segs then None
  else Some (List.sort_uniq Int.compare !owners)
