	.section .note.GNU-stack,"",@progbits
	.text
	.globl dscal_kernel
	.type dscal_kernel, @function
	.p2align 4
dscal_kernel:
	sub	$64, %rsp
	mov	%rdi, (%rsp)	# arg N
	vmovsd	%xmm0, 8(%rsp)	# arg alpha
	mov	%rsi, 16(%rsp)	# arg X
	mov	16(%rsp), %rcx	# home X
	mov	(%rsp), %rdx	# home N
	mov	%rcx, %rdi
	mov	$0, %rsi
	jmp	.LBL0
.LBL1:
	# --- mvSCALE ---
	vmovsd	(%rdi), %xmm0	# tmp0 = ptr_X0[0]
	vmovsd	8(%rsp), %xmm16	# load param alpha
	vmulsd	%xmm16, %xmm0, %xmm0
	vmovsd	%xmm0, (%rdi)	# ptr_X0[0] *= alpha
	add	$8, %rdi	# ptr_X0 += 1
	add	$1, %rsi
.LBL0:
	cmp	%rdx, %rsi
	jl	.LBL1
	vzeroupper
	add	$64, %rsp
	ret
	.size dscal_kernel, .-dscal_kernel
