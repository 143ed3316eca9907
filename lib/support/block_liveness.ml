type code = {
  nblocks : int;
  nvregs : int;
  vreg_base : int;
  succs : int -> int list;
  length : int -> int;
  defs_uses : int -> int -> int list * int list;
}

type t = { live_in : Bitset.t array; live_out : Bitset.t array }

let solve ?(exit_uses = fun _ -> []) c =
  let nb = c.nblocks and nv = c.nvregs in
  (* live_in starts as gen, the upward-exposed uses *)
  let live_in = Array.init nb (fun _ -> Bitset.create nv) in
  let kill = Array.init nb (fun _ -> Bitset.create nv) in
  for b = 0 to nb - 1 do
    let gen = live_in.(b) and kill = kill.(b) in
    for k = c.length b - 1 downto 0 do
      let defs, uses = c.defs_uses b k in
      List.iter
        (fun d ->
          if d >= c.vreg_base then begin
            Bitset.add kill (d - c.vreg_base);
            Bitset.remove gen (d - c.vreg_base)
          end)
        defs;
      List.iter (fun u -> if u >= c.vreg_base then Bitset.add gen (u - c.vreg_base)) uses
    done
  done;
  let live_out =
    Array.init nb (fun b ->
        let out = Bitset.create nv in
        List.iter (fun r -> if r >= c.vreg_base then Bitset.add out (r - c.vreg_base)) (exit_uses b);
        out)
  in
  let changed = ref true in
  while !changed do
    changed := false;
    for b = nb - 1 downto 0 do
      let out = live_out.(b) in
      List.iter (fun s -> ignore (Bitset.union_into ~src:live_in.(s) out)) (c.succs b);
      if Bitset.union_diff_into ~src:out ~minus:kill.(b) live_in.(b) then changed := true
    done
  done;
  { live_in; live_out }

(* [range_end.(v)] is the end of [v]'s open segment, or -1. A block's scan
   opens the segments of [live_out] and closes those still open at its
   entry, which are exactly [live_in]; so every entry is -1 between blocks
   and no block pays for the registers it does not touch. *)
let ranges ?(on_ref = fun _ _ -> ()) c live ~point =
  let ranges = Array.make c.nvregs [] in
  let add_range v s e = if e > s then ranges.(v) <- (s, e) :: ranges.(v) in
  let range_end = Array.make c.nvregs (-1) in
  for b = 0 to c.nblocks - 1 do
    let n = c.length b in
    let bstart = point b 0 and bend = point b n in
    Bitset.iter (fun v -> range_end.(v) <- bend) live.live_out.(b);
    for k = n - 1 downto 0 do
      let defs, uses = c.defs_uses b k in
      let p = point b k in
      List.iter
        (fun d ->
          if d >= c.vreg_base then begin
            let v = d - c.vreg_base in
            on_ref b v;
            if range_end.(v) >= 0 then begin
              add_range v (p + 1) range_end.(v);
              range_end.(v) <- -1
            end
            else add_range v (p + 1) (p + 2)
          end)
        defs;
      List.iter
        (fun u ->
          if u >= c.vreg_base then begin
            let v = u - c.vreg_base in
            on_ref b v;
            if range_end.(v) < 0 then range_end.(v) <- p + 1
          end)
        uses
    done;
    Bitset.iter
      (fun v ->
        add_range v bstart range_end.(v);
        range_end.(v) <- -1)
      live.live_in.(b)
  done;
  ranges
