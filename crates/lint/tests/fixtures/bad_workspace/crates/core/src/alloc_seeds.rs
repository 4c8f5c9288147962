//! Fixture: one `Alloc` seed per fn. Each body's only allocation is the
//! named constructor, macro or method, so the effect golden pins every
//! seed of the `Alloc` row of the effect table.

use std::rc::Rc;
use std::sync::Arc;

pub fn alloc_rc_new() -> Rc<u8> { Rc::new(1) }

pub fn alloc_arc_new() -> Arc<u8> { Arc::new(1) }

pub fn alloc_box_pin() -> usize { std::mem::size_of_val(&Box::pin(1u8)) }

pub fn alloc_vec_macro() -> usize { vec![0u8; 4].len() }

pub fn alloc_format_macro() -> usize { format!("{}", 1).len() }

pub fn alloc_collect(xs: &[u8]) -> Vec<u8> { xs.iter().copied().collect() }

pub fn alloc_collect_turbofish(xs: &[u8]) -> usize { xs.iter().copied().collect::<Vec<u8>>().len() }
