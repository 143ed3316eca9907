(** Cranelift-like register allocation (Sec. VI-C3).

    A modified linear scan, as the paper describes: live ranges are
    computed per virtual register by several passes over the code (block
    liveness fixpoint, then a backward range-building scan, both
    {!Qcomp_support.Block_liveness}), non-overlapping move-related ranges
    are merged into bundles, and allocation assigns each bundle to a
    physical register whose occupancy is tracked in a per-preg B-tree
    ({!Qcomp_support.Interference}) — the data structure whose traversal
    the paper measures at ~6% of register-allocation time. Bundles that fit
    no register are spilled (we spill whole bundles instead of splitting
    them — a documented simplification). *)

open Qcomp_support
open Qcomp_vm

type t = {
  assignment : int array;  (** vreg ordinal -> preg, or -1 = spilled *)
  spill_slot : int array;  (** vreg ordinal -> frame offset, or -1 *)
  block_pref : (int * int, int) Hashtbl.t;
      (** (vreg ordinal, block) -> block-local preg for spilled vregs whose
          range could be re-allocated inside that block (bundle splitting) *)
  live_out : Bitset.t array;
      (** per-block liveness, used to elide dead write-through stores *)
  frame_size : int;  (** bytes of spill area *)
  num_spilled : int;
  btree_ops : int;  (** interference-union insert/query count (statistics) *)
}

let caller_saved (target : Target.t) =
  Array.to_list target.Target.allocatable
  |> List.filter (fun r -> not (Target.is_callee_saved target r))

(* registers reserved for spill-code scratches: never allocated *)
let ra_scratch (target : Target.t) =
  match target.Target.arch with
  | Target.X64 -> (10, 11)
  | Target.A64 -> (17, 18)

let allocatable_pregs (target : Target.t) =
  let s1, s2 = ra_scratch target in
  Array.to_list target.Target.allocatable
  |> List.filter (fun r -> r <> s1 && r <> s2 && r <> target.Target.scratch)

let run (vc : Vcode.t) : t =
  let target = vc.Vcode.target in
  let nv = vc.Vcode.num_vregs in
  let nb = vc.Vcode.nblocks in
  let vidx r = r - Vcode.vreg_base in
  (* ---- instruction numbering: inst k of block b covers points
     [2*(start_b+k), 2*(start_b+k)+1] (use point, def point) ---- *)
  let block_start = Array.make (nb + 1) 0 in
  for b = 0 to nb - 1 do
    block_start.(b + 1) <- block_start.(b) + Vec.length vc.Vcode.insts.(b)
  done;
  let point b k = 2 * (block_start.(b) + k) in
  (* ---- block liveness (pass 1 over the IR), then live ranges (pass 2) ---- *)
  let code =
    {
      Block_liveness.nblocks = nb;
      nvregs = nv;
      vreg_base = Vcode.vreg_base;
      succs = (fun b -> vc.Vcode.succs.(b));
      length = (fun b -> Vec.length vc.Vcode.insts.(b));
      defs_uses = (fun b k -> Vcode.defs_uses (Vec.get vc.Vcode.insts.(b) k));
    }
  in
  let live = Block_liveness.solve code in
  let ranges = Block_liveness.ranges code live ~point in
  (* ---- bundle merging via union-find (move-related, non-overlapping) ---- *)
  let parent = Array.init nv (fun i -> i) in
  let rec find i = if parent.(i) = i then i else (parent.(i) <- find parent.(i); find parent.(i)) in
  (* one register's segments are disjoint, so their starts are distinct *)
  let by_start (sa, _) (sb, _) = Int.compare sa sb in
  let bundle_ranges = Array.map (List.sort by_start) ranges in
  let overlaps a b =
    (* both sorted; sweep *)
    let rec go a b =
      match (a, b) with
      | [], _ | _, [] -> false
      | (s1, e1) :: ra, (s2, e2) :: rb ->
          if e1 <= s2 then go ra b
          else if e2 <= s1 then go a rb
          else true
    in
    go a b
  in
  let merge_sorted a b = List.merge by_start a b in
  for b = 0 to nb - 1 do
    Vec.iter
      (fun inst ->
        match inst with
        | Minst.Mov_rr (d, s) when Vcode.is_vreg d && Vcode.is_vreg s ->
            let rd = find (vidx d) and rs = find (vidx s) in
            if rd <> rs && not (overlaps bundle_ranges.(rd) bundle_ranges.(rs))
            then begin
              parent.(rs) <- rd;
              bundle_ranges.(rd) <- merge_sorted bundle_ranges.(rd) bundle_ranges.(rs);
              bundle_ranges.(rs) <- []
            end
        | _ -> ())
      vc.Vcode.insts.(b)
  done;
  (* ---- per-preg interference unions, seeded with reservations ---- *)
  let btree_ops = ref 0 in
  let unions = Array.init 32 (fun _ -> Interference.create ()) in
  let occupy preg owner s e =
    incr btree_ops;
    Interference.add unions.(preg) owner s e
  in
  let reserve preg s e =
    incr btree_ops;
    Interference.add_fixed unions.(preg) s e
  in
  let conflicts preg s e =
    incr btree_ops;
    Interference.conflicts unions.(preg) s e
  in
  List.iter
    (fun (b, from_pos, to_pos, preg) ->
      reserve preg (point b from_pos) (point b to_pos + 2))
    vc.Vcode.reservations;
  List.iter
    (fun (b, pos) ->
      List.iter
        (fun preg -> reserve preg (point b pos) (point b pos + 2))
        (caller_saved target))
    vc.Vcode.call_positions;
  (* ---- allocation: bundles in start order ---- *)
  let bundles =
    List.init nv (fun v -> v)
    |> List.filter (fun v -> find v = v && bundle_ranges.(v) <> [])
    |> List.sort (fun a b ->
           by_start (List.hd bundle_ranges.(a)) (List.hd bundle_ranges.(b)))
  in
  let bundle_preg = Array.make nv (-1) in
  let bundle_spilled = Array.make nv false in
  let pregs = allocatable_pregs target in
  let num_spilled = ref 0 in
  List.iter
    (fun bu ->
      let segs = bundle_ranges.(bu) in
      let fits preg = List.for_all (fun (s, e) -> not (conflicts preg s e)) segs in
      match List.find_opt fits pregs with
      | Some preg ->
          bundle_preg.(bu) <- preg;
          List.iter (fun (s, e) -> occupy preg bu s e) segs
      | None ->
          bundle_spilled.(bu) <- true;
          incr num_spilled)
    bundles;
  (* ---- results per vreg ---- *)
  let assignment = Array.make nv (-1) in
  let spill_slot = Array.make nv (-1) in
  let frame = ref 0 in
  for v = 0 to nv - 1 do
    let bu = find v in
    if bundle_spilled.(bu) then begin
      (* one slot per bundle *)
      if spill_slot.(bu) < 0 then begin
        spill_slot.(bu) <- !frame;
        frame := !frame + 8
      end;
      spill_slot.(v) <- spill_slot.(bu)
    end
    else assignment.(v) <- bundle_preg.(bu)
  done;
  (* ---- block-local second chance (regalloc2 splits failing bundles; we
     approximate the common effect): give each spilled vreg a register for
     the parts of its live range inside a single block where one is free.
     Stores write through to the stack slot, so cross-block flow still goes
     through memory and correctness never depends on the split. ---- *)
  let block_pref : (int * int, int) Hashtbl.t = Hashtbl.create 16 in
  let block_of_point p =
    let rec bs lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi + 1) / 2 in
        if 2 * block_start.(mid) <= p then bs mid hi else bs lo (mid - 1)
    in
    bs 0 (nb - 1)
  in
  for v = 0 to nv - 1 do
    if assignment.(v) < 0 && spill_slot.(v) >= 0 && ranges.(v) <> [] then begin
      let spans = Hashtbl.create 4 in
      List.iter
        (fun (s, e) ->
          let b = block_of_point s in
          let s0, e0 = Option.value ~default:(s, e) (Hashtbl.find_opt spans b) in
          Hashtbl.replace spans b (min s s0, max e e0))
        ranges.(v);
      Hashtbl.iter
        (fun b (s, e) ->
          match List.find_opt (fun p -> not (conflicts p s e)) pregs with
          | Some preg ->
              occupy preg v s e;
              Hashtbl.replace block_pref (v, b) preg
          | None -> ())
        spans
    end
  done;
  {
    assignment;
    spill_slot;
    block_pref;
    live_out = live.Block_liveness.live_out;
    frame_size = !frame;
    num_spilled = !num_spilled;
    btree_ops = !btree_ops;
  }
